package game_test

import (
	"flag"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/game"
	"repro/internal/graph"
)

// The exhaustive conformance floor: every connected labeled graph on up to
// -floor.n vertices, every model configuration below, both objectives,
// both execution paths (per-agent and batched) and workers {1, 2}. Each
// check's verdict and witness must equal a reference sweep over the Naive
// instance's FirstImproving — an oracle that skips no agent and no
// candidate — so an unsound pruning rule, a dropped candidate or a
// reordered witness anywhere in the fast paths shows up as a diff on some
// small graph. The default (n ≤ 5: 772 graphs) runs in tier-1; the n = 6
// sweep (26,704 more graphs) runs in CI:
//
//	go test ./internal/game -run TestConformanceFloor -floor.n=6

var floorN = flag.Int("floor.n", 5, "largest vertex count of the exhaustive conformance floor")

// floorRow is one model configuration the floor certifies on every graph.
type floorRow struct {
	Name string
	// Model builds the row's model for an n-vertex graph; rng seeds the
	// interest sets of the interests rows.
	Model func(n int, rng *rand.Rand) game.Model
	// StableOnly lists the CheckSpec.StableOnly values to run: the swap
	// model's deletion-criticality half is on when false (under max).
	StableOnly []bool
}

// floorRows is the floor's table. Interest sets break the graph's
// symmetry, so each interests row draws its sets from a seeded rng.
var floorRows = []floorRow{
	{Name: "swap", Model: fixed(game.Swap{}), StableOnly: []bool{false, true}},
	{Name: "greedy/c=0", Model: fixed(game.Greedy{EdgeCost: 0})},
	{Name: "greedy/c=1", Model: fixed(game.Greedy{EdgeCost: 1})},
	{Name: "greedy/c=2", Model: fixed(game.Greedy{EdgeCost: 2})},
	{Name: "budget/K=2", Model: fixed(game.Budget{K: 2})},
	{Name: "budget/K=3", Model: fixed(game.Budget{K: 3})},
	{Name: "2nb", Model: fixed(game.TwoNeighborhood{})},
	{Name: "interests/uniform", Model: func(n int, _ *rand.Rand) game.Model { return game.UniformInterests(n) }},
	{Name: "interests/ring", Model: func(n int, _ *rand.Rand) game.Model { return ringInterests(n) }},
	{Name: "interests/random", Model: func(n int, rng *rand.Rand) game.Model {
		return game.RandomInterests(n, 0.5, rng)
	}},
}

func fixed(m game.Model) func(int, *rand.Rand) game.Model {
	return func(int, *rand.Rand) game.Model { return m }
}

// ringInterests has each agent care about its two ring neighbors.
func ringInterests(n int) game.Model {
	sets := make([][]int32, n)
	for v := range sets {
		sets[v] = []int32{int32((v + 1) % n), int32((v + n - 1) % n)}
	}
	return game.NewInterests(sets)
}

func TestConformanceFloor(t *testing.T) {
	for n := 1; n <= *floorN; n++ {
		var graphs atomic.Int64
		forEachConnectedGraph(t, n, func(mask int, g *graph.Graph) error {
			graphs.Add(1)
			rng := rand.New(rand.NewSource(int64(n)<<32 | int64(mask)))
			for _, row := range floorRows {
				if err := row.check(g, row.Model(n, rng)); err != nil {
					return fmt.Errorf("%s on n=%d %v: %w", row.Name, n, g.Edges(), err)
				}
			}
			return nil
		})
		t.Logf("n=%d: %d connected labeled graphs", n, graphs.Load())
	}
}

// check runs the row's model on g over both objectives, its StableOnly
// values, both paths and workers {1, 2} against the reference.
func (row floorRow) check(g *graph.Graph, model game.Model) error {
	stableOnly := row.StableOnly
	if stableOnly == nil {
		stableOnly = []bool{true}
	}
	for _, obj := range []game.Objective{game.Sum, game.Max} {
		for _, so := range stableOnly {
			wantStable, want := floorReference(model, g, obj, !so)
			for _, batched := range []bool{false, true} {
				for _, workers := range []int{1, 2} {
					spec := core.CheckSpec{Model: model, Objective: obj, StableOnly: so, Batched: batched, Workers: workers}
					got, err := core.Check(g, spec)
					if err != nil {
						return err
					}
					if got.Stable != wantStable || !sameViolation(got.Violation, want) {
						return fmt.Errorf("obj=%v stableOnly=%v batched=%v workers=%d:\n got (%v, %v)\nwant (%v, %v)",
							obj, so, batched, workers, got.Stable, got.Violation, wantStable, want)
					}
				}
			}
		}
	}
	return nil
}

// floorReference is the unpruned certification: agents ascending, the
// deletion-criticality half (max, when asked) priced by game.Evaluate
// deletions, then the first move the Naive instance's FirstImproving
// finds.
func floorReference(model game.Model, g *graph.Graph, obj game.Objective, deletionCritical bool) (bool, *game.Violation) {
	naive := model.Naive(g.Clone(), 1)
	probe := g.Clone()
	for v := 0; v < g.N(); v++ {
		if deletionCritical && obj == game.Max {
			cur := game.Cost(probe, v, game.Max)
			for _, w := range sortedNeighbors(probe, v) {
				del := game.Evaluate(probe, game.Move{Kind: game.KindDelete, V: v, Drop: w}, game.Max)
				if del <= cur {
					return false, &game.Violation{Kind: game.DeletionSafe, Edge: graph.NewEdge(v, w),
						Agent: v, OldCost: cur, NewCost: del}
				}
			}
		}
		if m, oldCost, newCost, ok := naive.FirstImproving(v, obj); ok {
			return false, &game.Violation{Kind: game.SwapImproves, Move: m, Agent: v,
				OldCost: oldCost, NewCost: newCost}
		}
	}
	return true, nil
}

func sameViolation(a, b *game.Violation) bool {
	if a == nil || b == nil {
		return a == b
	}
	return *a == *b
}

// forEachConnectedGraph calls fn with every connected labeled graph on n
// vertices and its edge-subset mask, sharded across GOMAXPROCS goroutines;
// the first error fails t and stops the enumeration.
func forEachConnectedGraph(t *testing.T, n int, fn func(mask int, g *graph.Graph) error) {
	type pair struct{ u, v int }
	var pairs []pair
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			pairs = append(pairs, pair{u, v})
		}
	}
	if len(pairs) > 21 {
		t.Fatalf("n=%d has 2^%d edge subsets", n, len(pairs))
	}
	shards := runtime.GOMAXPROCS(0)
	var failed atomic.Bool
	var wg sync.WaitGroup
	for shard := 0; shard < shards; shard++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for mask := shard; mask < 1<<len(pairs) && !failed.Load(); mask += shards {
				g := graph.New(n)
				for i, p := range pairs {
					if mask&(1<<i) != 0 {
						g.AddEdge(p.u, p.v)
					}
				}
				if !g.IsConnected() {
					continue
				}
				if err := fn(mask, g); err != nil && !failed.Swap(true) {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
}
