package pricing_test

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/pricing"
)

// FuzzApplySwap drives a pricing session with a fuzzer-chosen sequence of
// legal swaps and interleaved undos, mirroring every operation onto a
// plain mutable graph. After every mutation the session's live snapshot
// must agree with a fresh Freeze of the mirror on vertex count, edge
// count, degrees, sorted adjacency, and one full BFS row.
//
// Run a short bounded hunt with:
//
//	go test -run=NONE -fuzz=FuzzApplySwap -fuzztime=30s ./internal/pricing
func FuzzApplySwap(f *testing.F) {
	f.Add(uint8(8), int64(1), []byte{0, 7, 13, 2, 250, 9, 4, 44, 251})
	f.Add(uint8(3), int64(9), []byte{255, 254, 1, 2, 3})
	f.Add(uint8(20), int64(42), []byte{})
	f.Fuzz(func(t *testing.T, nRaw uint8, seed int64, ops []byte) {
		n := 2 + int(nRaw)%30
		rng := rand.New(rand.NewSource(seed))
		// Connected start: a random spanning tree plus a few chords.
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

		mirror := g.Clone()
		sess := pricing.New(1).NewSession(g)
		type rec struct {
			v, drop, add int
			added        bool
		}
		var applied []rec

		check := func(step int) {
			t.Helper()
			d := sess.View()
			fz := mirror.Freeze()
			if d.N() != fz.N() || d.M() != fz.M() {
				t.Fatalf("step %d: view n=%d m=%d, mirror n=%d m=%d",
					step, d.N(), d.M(), fz.N(), fz.M())
			}
			for v := 0; v < n; v++ {
				got, want := d.Neighbors(v), fz.Neighbors(v)
				if len(got) != len(want) || d.Degree(v) != len(want) {
					t.Fatalf("step %d vertex %d: degree %d, want %d", step, v, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("step %d vertex %d: adjacency %v, want %v", step, v, got, want)
					}
				}
			}
			src := (step%n + n) % n
			distD := make([]int32, n)
			distF := make([]int32, n)
			queue := make([]int32, 0, n)
			d.BFSInto(src, distD, queue)
			fz.BFSInto(src, distF, queue)
			for x := range distD {
				if distD[x] != distF[x] {
					t.Fatalf("step %d: BFS row from %d differs at %d: %d vs %d",
						step, src, x, distD[x], distF[x])
				}
			}
		}

		check(-1)
		for i := 0; i+2 < len(ops); i += 3 {
			if ops[i] >= 224 && len(applied) > 0 {
				// Undo the most recent applied swap on both structures.
				if !sess.Undo() {
					t.Fatal("Undo failed with non-empty stack")
				}
				last := applied[len(applied)-1]
				applied = applied[:len(applied)-1]
				if last.added {
					mirror.RemoveEdge(last.v, last.add)
				}
				mirror.AddEdge(last.v, last.drop)
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
			sess.ApplySwap(v, drop, add)
			mirror.RemoveEdge(v, drop)
			added := mirror.AddEdge(v, add)
			applied = append(applied, rec{v: v, drop: drop, add: add, added: added})
			check(i)
		}
		if sess.Depth() != len(applied) {
			t.Fatalf("Depth %d, applied %d", sess.Depth(), len(applied))
		}
		// Drain the undo stack: the session must return to the start graph.
		for sess.Undo() {
		}
		mirror = g
		check(len(ops))
	})
}
