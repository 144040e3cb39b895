package pricing_test

import (
	"math/rand"
	"testing"

	"repro/internal/constructions"
	"repro/internal/graph"
	"repro/internal/pricing"
)

// requireViewMatches asserts the session's live snapshot equals a fresh
// Freeze of the mirror graph.
func requireViewMatches(t *testing.T, s *pricing.Session, mirror *graph.Graph) {
	t.Helper()
	d := s.View()
	f := mirror.Freeze()
	if d.N() != f.N() || d.M() != f.M() {
		t.Fatalf("view n=%d m=%d, mirror n=%d m=%d", d.N(), d.M(), f.N(), f.M())
	}
	for v := 0; v < f.N(); v++ {
		got, want := d.Neighbors(v), f.Neighbors(v)
		if len(got) != len(want) {
			t.Fatalf("vertex %d: view degree %d, mirror %d", v, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("vertex %d adjacency: view %v, mirror %v", v, got, want)
			}
		}
	}
}

func TestSessionApplySwapAndUndo(t *testing.T) {
	g := constructions.Cycle(8)
	mirror := g.Clone()
	s := pricing.New(1).NewSession(g)

	// Proper swap.
	s.ApplySwap(0, 1, 4)
	mirror.RemoveEdge(0, 1)
	mirror.AddEdge(0, 4)
	requireViewMatches(t, s, mirror)

	// Swap onto an existing edge: pure deletion.
	s.ApplySwap(0, 7, 4)
	mirror.RemoveEdge(0, 7)
	requireViewMatches(t, s, mirror)

	// No-op swap (add == drop).
	s.ApplySwap(2, 3, 3)
	requireViewMatches(t, s, mirror)

	if s.Depth() != 3 {
		t.Fatalf("Depth = %d, want 3", s.Depth())
	}
	// Undo all three; the view must return to the starting cycle.
	for s.Undo() {
	}
	requireViewMatches(t, s, g)
	if s.Undo() {
		t.Error("Undo on empty stack reported success")
	}
}

func TestSessionApplySwapPanicsOnMissingDrop(t *testing.T) {
	s := pricing.New(1).NewSession(constructions.Path(5))
	defer func() {
		if recover() == nil {
			t.Error("ApplySwap with absent drop edge did not panic")
		}
	}()
	s.ApplySwap(0, 3, 2)
}

func TestSessionScanStalenessPanics(t *testing.T) {
	s := pricing.New(1).NewSession(constructions.Cycle(6))
	scan := s.NewScan(0)
	s.ApplySwap(0, 1, 3)
	defer func() {
		if recover() == nil {
			t.Error("stale scan did not panic")
		}
	}()
	scan.ForEach(pricing.Sum, false, func(int, int, int64) bool { return true })
}

func TestSessionScanPricesLikeFreshFreeze(t *testing.T) {
	// After a chain of applied swaps the session's scans must price every
	// candidate exactly like a one-shot scan over a fresh Freeze of the
	// mirrored graph.
	rng := rand.New(rand.NewSource(11))
	eng := pricing.New(2)
	for trial := 0; trial < 6; trial++ {
		g := randomConnected(rng, 6+rng.Intn(8), 0.3)
		mirror := g.Clone()
		s := eng.NewSession(g)
		for step := 0; step < 8; step++ {
			v := rng.Intn(g.N())
			if mirror.Degree(v) == 0 {
				continue
			}
			nbs := mirror.Neighbors(v)
			w := nbs[rng.Intn(len(nbs))]
			wp := rng.Intn(g.N())
			if wp == v {
				continue
			}
			s.ApplySwap(v, w, wp)
			mirror.RemoveEdge(v, w)
			mirror.AddEdge(v, wp)
		}
		f := mirror.Freeze()
		for _, obj := range []pricing.Objective{pricing.Sum, pricing.Max} {
			for v := 0; v < mirror.N(); v++ {
				live := s.NewScan(v)
				fresh := eng.NewScan(f, v)
				if live.CurrentUsage(obj) != fresh.CurrentUsage(obj) {
					t.Fatalf("trial %d v=%d: current usage diverged", trial, v)
				}
				type key struct{ drop, add int }
				want := map[key]int64{}
				fresh.ForEach(obj, false, func(i, add int, cost int64) bool {
					want[key{int(fresh.Drops()[i]), add}] = cost
					return true
				})
				count := 0
				live.ForEach(obj, false, func(i, add int, cost int64) bool {
					count++
					k := key{int(live.Drops()[i]), add}
					if c, ok := want[k]; !ok || c != cost {
						t.Fatalf("trial %d obj=%d v=%d candidate %v: live %d, fresh %d (present=%v)",
							trial, obj, v, k, cost, c, ok)
					}
					return true
				})
				if count != len(want) {
					t.Fatalf("trial %d v=%d: live %d candidates, fresh %d", trial, v, count, len(want))
				}
				lb, lok := live.BestMove(obj, false)
				fb, fok := fresh.BestMove(obj, false)
				if lok != fok || lb != fb {
					t.Fatalf("trial %d obj=%d v=%d: live best %+v/%v, fresh %+v/%v",
						trial, obj, v, lb, lok, fb, fok)
				}
				live.Close()
				fresh.Close()
			}
		}
	}
}

func TestSessionAddRemoveMirrorsGraph(t *testing.T) {
	g := constructions.Path(6)
	mirror := g.Clone()
	s := pricing.New(1).NewSession(g)
	if !s.ApplyAdd(0, 3) || !mirror.AddEdge(0, 3) {
		t.Fatal("add failed")
	}
	if s.ApplyAdd(0, 3) {
		t.Error("duplicate add reported success")
	}
	if !s.ApplyRemove(2, 3) || !mirror.RemoveEdge(2, 3) {
		t.Fatal("remove failed")
	}
	if s.ApplyRemove(2, 3) {
		t.Error("absent remove reported success")
	}
	requireViewMatches(t, s, mirror)
	for s.Undo() {
	}
	requireViewMatches(t, s, g)
}
