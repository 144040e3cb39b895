package game_test

import (
	"math/rand"
	"testing"

	"repro/internal/game"
	"repro/internal/graph"
)

// FuzzGreedyApply drives a greedy fast instance with a fuzzer-chosen
// sequence of adds, deletes, swaps, and interleaved undos, mirroring every
// operation onto a plain mutable graph. After every mutation the
// instance's authoritative graph must equal the mirror, and its
// session-backed pricing must agree with a fresh naive instance on the
// mirror (per-agent cost and social cost) — the apply/undo path of every
// move kind is exercised against the O(deg) snapshot patches.
//
// Run a short bounded hunt with:
//
//	go test -run=NONE -fuzz=FuzzGreedyApply -fuzztime=30s ./internal/game
func FuzzGreedyApply(f *testing.F) {
	f.Add(uint8(8), int64(1), []byte{0, 7, 13, 2, 250, 9, 4, 44, 251, 1, 2, 3})
	f.Add(uint8(3), int64(9), []byte{255, 254, 1, 2, 3, 200, 100, 0})
	f.Add(uint8(20), int64(42), []byte{})
	f.Fuzz(func(t *testing.T, nRaw uint8, seed int64, ops []byte) {
		n := 2 + int(nRaw)%24
		rng := rand.New(rand.NewSource(seed))
		g := graph.New(n)
		for v := 1; v < n; v++ {
			g.AddEdge(v, rng.Intn(v))
		}
		for i := 0; i < n/3; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddEdge(u, v)
			}
		}

		model := game.Greedy{EdgeCost: 2}
		start := g.Clone()
		mirror := g.Clone()
		inst := model.New(g, 1)
		var undos []func()

		check := func(step int) {
			t.Helper()
			if !g.Equal(mirror) {
				t.Fatalf("step %d: instance graph diverged from mirror", step)
			}
			oracle := model.Naive(mirror, 1)
			v := (step%n + n) % n
			if got, want := inst.Cost(v, game.Sum), oracle.Cost(v, game.Sum); got != want {
				t.Fatalf("step %d: Cost(%d) live %d, oracle %d", step, v, got, want)
			}
			if got, want := inst.SocialCost(game.Max), oracle.SocialCost(game.Max); got != want {
				t.Fatalf("step %d: SocialCost live %d, oracle %d", step, got, want)
			}
		}

		check(-1)
		for i := 0; i+2 < len(ops); i += 3 {
			if ops[i] >= 224 && len(undos) > 0 {
				// Undo the most recent applied move on the instance; the
				// mirror replays from scratch below via graph equality.
				undos[len(undos)-1]()
				undos = undos[:len(undos)-1]
				mirror = g.Clone()
				check(i)
				continue
			}
			v := int(ops[i]) % n
			var m game.Move
			switch ops[i+1] % 3 {
			case 0: // add
				w := int(ops[i+2]) % n
				if w == v || mirror.HasEdge(v, w) {
					continue
				}
				m = game.Move{Kind: game.KindAdd, V: v, Add: w}
			case 1: // delete
				if mirror.Degree(v) == 0 {
					continue
				}
				nbs := mirror.Neighbors(v)
				m = game.Move{Kind: game.KindDelete, V: v, Drop: nbs[int(ops[i+2])%len(nbs)]}
			default: // swap
				if mirror.Degree(v) == 0 {
					continue
				}
				nbs := mirror.Neighbors(v)
				drop := nbs[int(ops[i+1]/3)%len(nbs)]
				add := int(ops[i+2]) % n
				if add == v {
					continue
				}
				m = game.Move{Kind: game.KindSwap, V: v, Drop: drop, Add: add}
			}
			undos = append(undos, inst.Apply(m))
			applyToMirror(mirror, m)
			check(i)
		}
		// Drain the undo stack: the instance must return to the start graph.
		for i := len(undos) - 1; i >= 0; i-- {
			undos[i]()
		}
		if !g.Equal(start) {
			t.Fatal("undo chain did not restore the start graph")
		}
		mirror = start
		check(len(ops))
	})
}

// FuzzBudgetApply drives a bounded-budget fast instance with a
// fuzzer-chosen sequence of feasible swaps and interleaved undos, mirroring
// every operation onto a plain mutable graph. Infeasible candidates
// (over-budget targets) are filtered against the mirror exactly as the
// model's scans filter them, so every generated move must be accepted by
// Apply; after every mutation the instance's authoritative graph must equal
// the mirror and its session-backed pricing must agree with a fresh naive
// instance on the mirror (per-agent cost and social cost), and the budget's
// degree invariant deg(u) ≤ max(deg₀(u), K) must hold.
//
// Run a short bounded hunt with:
//
//	go test -run=NONE -fuzz=FuzzBudgetApply -fuzztime=30s ./internal/game
func FuzzBudgetApply(f *testing.F) {
	f.Add(uint8(8), uint8(2), int64(1), []byte{0, 7, 13, 2, 250, 9, 4, 44, 251, 1, 2, 3})
	f.Add(uint8(3), uint8(1), int64(9), []byte{255, 254, 1, 2, 3, 200, 100, 0})
	f.Add(uint8(20), uint8(5), int64(42), []byte{})
	f.Fuzz(func(t *testing.T, nRaw, kRaw uint8, seed int64, ops []byte) {
		n := 2 + int(nRaw)%24
		k := 1 + int(kRaw)%6
		rng := rand.New(rand.NewSource(seed))
		g := graph.New(n)
		for v := 1; v < n; v++ {
			g.AddEdge(v, rng.Intn(v))
		}
		for i := 0; i < n/3; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddEdge(u, v)
			}
		}

		model := game.Budget{K: k}
		start := g.Clone()
		mirror := g.Clone()
		bound := make([]int, n)
		for v := 0; v < n; v++ {
			bound[v] = g.Degree(v)
			if bound[v] < k {
				bound[v] = k
			}
		}
		inst := model.New(g, 1)
		var undos []func()

		check := func(step int) {
			t.Helper()
			if !g.Equal(mirror) {
				t.Fatalf("step %d: instance graph diverged from mirror", step)
			}
			for u := 0; u < n; u++ {
				if g.Degree(u) > bound[u] {
					t.Fatalf("step %d: deg(%d) = %d exceeds max(deg0, k) = %d", step, u, g.Degree(u), bound[u])
				}
			}
			oracle := model.Naive(mirror, 1)
			v := (step%n + n) % n
			if got, want := inst.Cost(v, game.Sum), oracle.Cost(v, game.Sum); got != want {
				t.Fatalf("step %d: Cost(%d) live %d, oracle %d", step, v, got, want)
			}
			if got, want := inst.SocialCost(game.Max), oracle.SocialCost(game.Max); got != want {
				t.Fatalf("step %d: SocialCost live %d, oracle %d", step, got, want)
			}
		}

		check(-1)
		for i := 0; i+2 < len(ops); i += 3 {
			if ops[i] >= 224 && len(undos) > 0 {
				undos[len(undos)-1]()
				undos = undos[:len(undos)-1]
				mirror = g.Clone()
				check(i)
				continue
			}
			v := int(ops[i]) % n
			if mirror.Degree(v) == 0 {
				continue
			}
			nbs := mirror.Neighbors(v)
			drop := nbs[int(ops[i+1])%len(nbs)]
			add := int(ops[i+2]) % n
			if add == v {
				continue
			}
			// The model's feasibility rule: a fresh target needs budget room.
			if !mirror.HasEdge(v, add) && mirror.Degree(add) >= k {
				continue
			}
			m := game.Move{V: v, Drop: drop, Add: add}
			undos = append(undos, inst.Apply(m))
			applyToMirror(mirror, m)
			check(i)
		}
		for i := len(undos) - 1; i >= 0; i-- {
			undos[i]()
		}
		if !g.Equal(start) {
			t.Fatal("undo chain did not restore the start graph")
		}
		mirror = start
		check(len(ops))
	})
}

// applyToMirror replays a move on the mirror with the same degenerate-move
// semantics as game.ApplyToGraph.
func applyToMirror(g *graph.Graph, m game.Move) {
	switch m.Kind {
	case game.KindAdd:
		g.AddEdge(m.V, m.Add)
	case game.KindDelete:
		g.RemoveEdge(m.V, m.Drop)
	default:
		g.RemoveEdge(m.V, m.Drop)
		g.AddEdge(m.V, m.Add)
	}
}
