package pricing_test

import (
	"math/rand"
	"testing"

	"repro/internal/constructions"
	"repro/internal/graph"
	"repro/internal/pricing"
	"repro/internal/treegen"
)

// oracle prices one swap the slow way: clone, apply, BFS, measure. The
// engine must agree with it on every candidate — kind (no-op, deletion,
// proper swap), delta, and verdict.
func oracle(g *graph.Graph, v, drop, add int, obj pricing.Objective) int64 {
	h := g.Clone()
	h.RemoveEdge(v, drop)
	h.AddEdge(v, add)
	return pricing.Usage(h.BFS(v), obj)
}

func randomConnected(rng *rand.Rand, n int, extra float64) *graph.Graph {
	g := treegen.RandomTree(n, rng)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < extra {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

func testInstances(rng *rand.Rand) map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"path":    constructions.Path(9),
		"cycle":   constructions.Cycle(10),
		"star":    constructions.Star(8),
		"torus":   constructions.NewTorus(2).Graph(),
		"random1": randomConnected(rng, 8, 0.2),
		"random2": randomConnected(rng, 12, 0.35),
		"random3": randomConnected(rng, 6, 0.6),
	}
}

func TestEngineMatchesOracleOnEveryCandidate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	eng := pricing.New(1)
	for name, g := range testInstances(rng) {
		f := g.Freeze()
		for _, obj := range []pricing.Objective{pricing.Sum, pricing.Max} {
			for v := 0; v < g.N(); v++ {
				scan := eng.NewScan(f, v)
				if got, want := scan.CurrentUsage(obj), pricing.Usage(g.BFS(v), obj); got != want {
					t.Fatalf("%s obj=%d v=%d: current usage %d, want %d", name, obj, v, got, want)
				}
				candidates := 0
				scan.ForEach(obj, false, func(i, add int, cost int64) bool {
					candidates++
					drop := int(scan.Drops()[i])
					if want := oracle(g, v, drop, add, obj); cost != want {
						t.Fatalf("%s obj=%d swap %d: %d→%d priced %d, oracle %d",
							name, obj, v, drop, add, cost, want)
					}
					return true
				})
				if want := g.Degree(v) * (g.N() - 1); candidates != want {
					t.Fatalf("%s v=%d: %d candidates, want %d", name, v, candidates, want)
				}
				scan.Close()
			}
		}
	}
}

func TestEngineMatchesOracleOnDisconnectedGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	eng := pricing.New(1)
	// Two components: a path and a triangle.
	g := graph.New(8)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(3, 4)
	g.AddEdge(4, 5)
	g.AddEdge(5, 3)
	_ = rng
	f := g.Freeze()
	for _, obj := range []pricing.Objective{pricing.Sum, pricing.Max} {
		for v := 0; v < g.N(); v++ {
			scan := eng.NewScan(f, v)
			scan.ForEach(obj, false, func(i, add int, cost int64) bool {
				drop := int(scan.Drops()[i])
				if want := oracle(g, v, drop, add, obj); cost != want {
					t.Fatalf("obj=%d swap %d: %d→%d priced %d, oracle %d",
						obj, v, drop, add, cost, want)
				}
				return true
			})
			scan.Close()
		}
	}
}

func TestDeletionAndNoOpSemantics(t *testing.T) {
	eng := pricing.New(1)
	g := constructions.Cycle(7)
	g.AddEdge(0, 3) // give vertex 0 a chord so it has an adjacent non-drop add
	f := g.Freeze()
	scan := eng.NewScan(f, 0)
	defer scan.Close()
	cur := scan.CurrentUsage(pricing.Sum)
	scan.ForEach(pricing.Sum, false, func(i, add int, cost int64) bool {
		drop := int(scan.Drops()[i])
		switch {
		case add == drop: // no-op reprices the current position
			if cost != cur {
				t.Errorf("no-op %d→%d priced %d, want current %d", drop, add, cost, cur)
			}
		case g.HasEdge(0, add): // swap onto an existing edge is a pure deletion
			if want := scan.DeletionUsage(i, pricing.Sum); cost != want {
				t.Errorf("deletion-swap %d→%d priced %d, want %d", drop, add, cost, want)
			}
		}
		return true
	})
}

func TestSkipAdjacentExcludesNeighbors(t *testing.T) {
	eng := pricing.New(1)
	g := constructions.Cycle(8)
	g.AddEdge(0, 4)
	f := g.Freeze()
	scan := eng.NewScan(f, 0)
	defer scan.Close()
	scan.ForEach(pricing.Sum, true, func(i, add int, cost int64) bool {
		if g.HasEdge(0, add) || add == 0 {
			t.Errorf("skipAdjacent offered add=%d", add)
		}
		return true
	})
}

func TestForEachEarlyStop(t *testing.T) {
	eng := pricing.New(1)
	f := constructions.Complete(6).Freeze()
	calls := 0
	scan := eng.NewScan(f, 0)
	defer scan.Close()
	scan.ForEach(pricing.Sum, false, func(int, int, int64) bool {
		calls++
		return false
	})
	if calls != 1 {
		t.Errorf("early stop made %d calls, want 1", calls)
	}
}

func TestBestMoveMatchesExhaustiveAndIsWorkerInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for name, g := range testInstances(rng) {
		f := g.Freeze()
		for _, obj := range []pricing.Objective{pricing.Sum, pricing.Max} {
			for v := 0; v < g.N(); v++ {
				// Exhaustive reference with the documented tie-break.
				var want pricing.Best
				wantOK := false
				for _, w := range g.Neighbors(v) {
					for add := 0; add < g.N(); add++ {
						if add == v {
							continue
						}
						cand := pricing.Best{Drop: w, Add: add, Cost: oracle(g, v, w, add, obj)}
						if !wantOK || less(cand, want) {
							want, wantOK = cand, true
						}
					}
				}
				var results []pricing.Best
				for _, workers := range []int{1, 2, 7} {
					scan := pricing.New(workers).NewScan(f, v)
					got, ok := scan.BestMove(obj, false)
					scan.Close()
					if ok != wantOK {
						t.Fatalf("%s obj=%d v=%d workers=%d: ok=%v, want %v", name, obj, v, workers, ok, wantOK)
					}
					if ok {
						results = append(results, got)
					}
				}
				for _, got := range results {
					if got != want {
						t.Fatalf("%s obj=%d v=%d: BestMove %+v, want %+v", name, obj, v, got, want)
					}
				}
			}
		}
	}
}

func less(a, b pricing.Best) bool {
	if a.Cost != b.Cost {
		return a.Cost < b.Cost
	}
	if a.Drop != b.Drop {
		return a.Drop < b.Drop
	}
	return a.Add < b.Add
}

func TestStabilityVerdictMatchesOracle(t *testing.T) {
	// The engine and the oracle must agree on the binary verdict "some
	// swap strictly improves some agent" for every instance and objective.
	rng := rand.New(rand.NewSource(4))
	eng := pricing.New(2)
	for name, g := range testInstances(rng) {
		f := g.Freeze()
		for _, obj := range []pricing.Objective{pricing.Sum, pricing.Max} {
			engineUnstable := false
			oracleUnstable := false
			for v := 0; v < g.N(); v++ {
				scan := eng.NewScan(f, v)
				cur := scan.CurrentUsage(obj)
				if best, ok := scan.BestMove(obj, false); ok && best.Cost < cur {
					engineUnstable = true
				}
				scan.Close()
				for _, w := range g.Neighbors(v) {
					for add := 0; add < g.N(); add++ {
						if add != v && oracle(g, v, w, add, obj) < pricing.Usage(g.BFS(v), obj) {
							oracleUnstable = true
						}
					}
				}
			}
			if engineUnstable != oracleUnstable {
				t.Fatalf("%s obj=%d: engine unstable=%v, oracle unstable=%v",
					name, obj, engineUnstable, oracleUnstable)
			}
		}
	}
}

func TestScanWithoutDrops(t *testing.T) {
	eng := pricing.New(1)
	g := graph.New(3)
	g.AddEdge(1, 2)
	f := g.Freeze()
	scan := eng.NewScan(f, 0) // isolated vertex: no moves
	defer scan.Close()
	if _, ok := scan.BestMove(pricing.Sum, false); ok {
		t.Error("isolated vertex reported a best move")
	}
	called := false
	scan.ForEach(pricing.Sum, false, func(int, int, int64) bool { called = true; return true })
	if called {
		t.Error("isolated vertex enumerated candidates")
	}
}

// TestDropRowsLazyConcurrentFirstUse pins the lazy dropped-edge rows: a
// fresh Scan builds them exactly once even when its first readers race
// (run under -race), and every reader sees the rows of G−v·drop. The hub
// of a star has enough drops to shard the build across the workers.
func TestDropRowsLazyConcurrentFirstUse(t *testing.T) {
	g := constructions.Star(40)
	g.AddEdge(1, 2)
	f := g.Freeze()
	for v := 0; v < 3; v++ {
		sc := pricing.New(4).NewScan(f, v)
		const readers = 8
		got := make([][][]int32, readers)
		done := make(chan int)
		for r := 0; r < readers; r++ {
			go func(r int) {
				got[r] = sc.DropRows()
				done <- r
			}(r)
		}
		for r := 0; r < readers; r++ {
			<-done
		}
		drops := sc.Drops()
		for r := 1; r < readers; r++ {
			if &got[r][0] != &got[0][0] {
				t.Fatalf("v=%d: reader %d got a second build of the rows", v, r)
			}
		}
		for i, w := range drops {
			h := g.Clone()
			h.RemoveEdge(v, int(w))
			want := h.BFS(v)
			for x, d := range got[0][i] {
				if d != want[x] {
					t.Fatalf("v=%d drop=%d: row[%d] = %d, want %d", v, w, x, d, want[x])
				}
			}
			if u, wu := sc.DeletionUsage(i, pricing.Sum), pricing.Usage(want, pricing.Sum); u != wu {
				t.Fatalf("v=%d drop=%d: DeletionUsage %d, want %d", v, w, u, wu)
			}
		}
		sc.Close()
	}
}
