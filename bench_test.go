package bncg

// Benchmark harness: one benchmark per paper artifact (E1–E10 regenerate
// the corresponding experiment table in quick mode), plus substrate
// micro-benchmarks and the ablations called out in DESIGN.md (patch-based
// swap pricing vs naive re-evaluation, sequential vs parallel APSP and
// checking, best-response vs random-improving dynamics).

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/constructions"
	"repro/internal/core"
	"repro/internal/dynamics"
	"repro/internal/experiments"
	"repro/internal/game"
	"repro/internal/games"
	"repro/internal/graph"
	"repro/internal/iso"
	"repro/internal/nash"
	"repro/internal/pricing"
	"repro/internal/treegen"
)

func benchExperiment(b *testing.B, id string) {
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	cfg := experiments.Config{Quick: true, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := experiments.RunOne(io.Discard, e, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// One benchmark per reproduced table/figure.

func BenchmarkE1SumTrees(b *testing.B)      { benchExperiment(b, "E1") }
func BenchmarkE2MaxTrees(b *testing.B)      { benchExperiment(b, "E2") }
func BenchmarkE3Fig3(b *testing.B)          { benchExperiment(b, "E3") }
func BenchmarkE4SumDiameter(b *testing.B)   { benchExperiment(b, "E4") }
func BenchmarkE5Torus(b *testing.B)         { benchExperiment(b, "E5") }
func BenchmarkE6MultiDim(b *testing.B)      { benchExperiment(b, "E6") }
func BenchmarkE7Balance(b *testing.B)       { benchExperiment(b, "E7") }
func BenchmarkE8Uniformity(b *testing.B)    { benchExperiment(b, "E8") }
func BenchmarkE9Cayley(b *testing.B)        { benchExperiment(b, "E9") }
func BenchmarkE10Alpha(b *testing.B)        { benchExperiment(b, "E10") }
func BenchmarkE11Lemma10(b *testing.B)      { benchExperiment(b, "E11") }
func BenchmarkE12AlphaGame(b *testing.B)    { benchExperiment(b, "E12") }
func BenchmarkE13PairUniform(b *testing.B)  { benchExperiment(b, "E13") }
func BenchmarkE14IsoClasses(b *testing.B)   { benchExperiment(b, "E14") }
func BenchmarkE15Proofs(b *testing.B)       { benchExperiment(b, "E15") }
func BenchmarkE16Conjecture14(b *testing.B) { benchExperiment(b, "E16") }
func BenchmarkE17ModelZoo(b *testing.B)     { benchExperiment(b, "E17") }
func BenchmarkE18BudgetSweep(b *testing.B)  { benchExperiment(b, "E18") }
func BenchmarkE19CrossModel(b *testing.B)   { benchExperiment(b, "E19") }
func BenchmarkE20Atlas(b *testing.B)        { benchExperiment(b, "E20") }

// Substrate micro-benchmarks.

func benchGraph(n int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := treegen.RandomTree(n, rng)
	for i := 0; i < n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddEdge(u, v)
		}
	}
	return g
}

func BenchmarkBFS(b *testing.B) {
	g := benchGraph(2000, 1)
	dist := make([]int32, g.N())
	queue := make([]int, 0, g.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.BFSInto(i%g.N(), dist, queue)
	}
}

func BenchmarkBFSFrozen(b *testing.B) {
	g := benchGraph(2000, 1)
	f := g.Freeze()
	dist := make([]int32, f.N())
	queue := make([]int32, 0, f.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.BFSInto(i%f.N(), dist, queue)
	}
}

func BenchmarkAPSPSequential(b *testing.B) {
	g := benchGraph(400, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.AllPairs()
	}
}

func BenchmarkAPSPParallel(b *testing.B) {
	g := benchGraph(400, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.AllPairsParallel(0)
	}
}

func BenchmarkCheckSumStar(b *testing.B) {
	g := Star(128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ok, _, err := core.CheckSum(g, 0); !ok || err != nil {
			b.Fatal("star rejected")
		}
	}
}

// BenchmarkCheckSumStarBatched is CheckSumStar through the batched
// cross-agent sweep: the n shared endpoint rows filter every leaf's
// candidate scan down to zero exact verifications on a stable star, so the
// pass costs Θ(n + m) BFS instead of Θ(n²). Same verdict and witness as
// CheckSum (pinned by TestCheckSwapBatchedMatchesCheckSwap).
func BenchmarkCheckSumStarBatched(b *testing.B) {
	g := Star(128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ok, _, err := core.CheckSumBatched(g, 0); !ok || err != nil {
			b.Fatal("star rejected")
		}
	}
}

func BenchmarkCheckMaxTorusSequential(b *testing.B) {
	g := NewTorus(4).Graph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ok, _, err := core.CheckMax(g, 1); !ok || err != nil {
			b.Fatal("torus rejected")
		}
	}
}

func BenchmarkCheckMaxTorusParallel(b *testing.B) {
	g := NewTorus(4).Graph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ok, _, err := core.CheckMax(g, 0); !ok || err != nil {
			b.Fatal("torus rejected")
		}
	}
}

// Exact agent pruning. The twin pass runs once per certification sweep
// after agent 0 is found stable, so on inputs without twins it is pure
// overhead: hashing every neighborhood, one sort of 2n keys, no
// confirmed match. Hypercube(8) and the spider with 1,023 legs of length
// 2 (n = 2,047) are twin-free.

func benchLowerTwins(b *testing.B, g *graph.Graph) {
	f := g.Freeze()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if game.LowerTwins(f) != nil {
			b.Fatal("fixture has twins")
		}
	}
}

func BenchmarkLowerTwinsHypercube8(b *testing.B) { benchLowerTwins(b, Hypercube(8)) }
func BenchmarkLowerTwinsSpider1023(b *testing.B) {
	benchLowerTwins(b, constructions.Spider(1023, 2))
}

// BenchmarkCheckSumSpiderHubFirst certifies the spider with the hub at
// label 0 under sum. Unpruned, the hub (adjacent to 1,023 vertices, within
// distance two of all) pays a full candidate scan before the sweep reaches
// the unstable leg at label 1; the locality lemma settles the hub from its
// own BFS row, so the check costs what the same spider with a leaf first
// costs.
func BenchmarkCheckSumSpiderHubFirst(b *testing.B) {
	g := constructions.Spider(1023, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ok, _, err := core.CheckSum(g, 1); ok || err != nil {
			b.Fatal("spider must be sum-unstable")
		}
	}
}

// Exact candidate filters. The spider with 1,023 legs of length 2 under
// a seeded relabeling with a leaf at label 0 (the hub lands at label
// 1,183): the leaf is the first agent the sweep scans and its swap onto
// the hub is the witness. Unfiltered, the max scans pay one BFS for each
// endpoint before the hub, and the batched check built all 2,047 shared
// rows before its first scan; with far-set landmarks and first-touch rows
// each check pays about a dozen BFS.

// spiderLeafFirst is Spider(1023, 2) relabeled by a seeded permutation
// with a leaf moved to label 0.
func spiderLeafFirst() *graph.Graph {
	src := constructions.Spider(1023, 2)
	n := src.N()
	perm := rand.New(rand.NewSource(28)).Perm(n)
	for v, p := range perm {
		if p == 0 {
			perm[v], perm[2] = perm[2], 0 // vertex 2 is a leaf
			break
		}
	}
	g := graph.New(n)
	for _, e := range src.Edges() {
		g.AddEdge(perm[e.U], perm[e.V])
	}
	return g
}

func benchCheckSpiderLeafFirst(b *testing.B, obj core.Objective, batched bool) {
	g := spiderLeafFirst()
	spec := core.CheckSpec{Objective: obj, Batched: batched, Workers: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v, err := core.Check(g, spec); err != nil || v.Stable || v.Violation.Agent != 0 {
			b.Fatal("the leaf at label 0 must be the witness")
		}
	}
}

func BenchmarkCheckMaxSpiderLeafFirst(b *testing.B) { benchCheckSpiderLeafFirst(b, core.Max, false) }
func BenchmarkCheckMaxSpiderLeafFirstBatched(b *testing.B) {
	benchCheckSpiderLeafFirst(b, core.Max, true)
}
func BenchmarkCheckSumSpiderLeafFirstBatched(b *testing.B) {
	benchCheckSpiderLeafFirst(b, core.Sum, true)
}

// BenchmarkGreedyMaxSpiderLeafFirst certifies the same spider in the
// greedy model under max: the leaf's add stage finds no improving add at
// these edge costs, so an unfiltered scan pays one BFS per add candidate
// and then one per swap candidate up to the hub; the far-set filter
// serves both stages (landmark rows in G for adds, in G−v for swaps).
func BenchmarkGreedyMaxSpiderLeafFirst(b *testing.B) {
	g := spiderLeafFirst()
	for _, c := range []int64{1, 2, 4} {
		b.Run(fmt.Sprintf("c=%d", c), func(b *testing.B) {
			spec := core.CheckSpec{Model: game.Greedy{EdgeCost: c}, Objective: core.Max, Workers: 1}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if v, err := core.Check(g, spec); err != nil || v.Stable || v.Violation.Agent != 0 {
					b.Fatal("the leaf at label 0 must be the witness")
				}
			}
		})
	}
}

// BenchmarkInterestsMaxStableStar192 certifies an interests max
// equilibrium on the per-agent path: Star(192) plus 6 leaf–leaf chords,
// every vertex interested in 4 random others. Each leaf's scan pays 4
// endpoint BFS and then prices every other candidate target-major from 4
// BFS rooted at its targets, instead of one BFS per candidate.
func BenchmarkInterestsMaxStableStar192(b *testing.B) {
	const n = 192
	rng := rand.New(rand.NewSource(5))
	g := Star(n)
	for added := 0; added < 6; {
		u, v := 1+rng.Intn(n-1), 1+rng.Intn(n-1)
		if u != v && g.AddEdge(u, v) {
			added++
		}
	}
	sets := make([][]int32, n)
	for v := range sets {
		for _, u := range rng.Perm(n)[:5] {
			if u != v && len(sets[v]) < 4 {
				sets[v] = append(sets[v], int32(u))
			}
		}
	}
	spec := core.CheckSpec{Model: game.NewInterests(sets), Objective: core.Max, Workers: 1}
	if v, err := core.Check(g, spec); err != nil || !v.Stable {
		b.Fatalf("fixture must be an interests max equilibrium: %v %v", v.Violation, err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v, err := core.Check(g, spec); err != nil || !v.Stable {
			b.Fatal("equilibrium rejected")
		}
	}
}

func BenchmarkInsertionStableTorus(b *testing.B) {
	g := NewTorus(5).Graph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ok, _, err := core.IsInsertionStable(g, 0); !ok || err != nil {
			b.Fatal("torus rejected")
		}
	}
}

func BenchmarkTorusOracleDist(b *testing.B) {
	tor := NewTorus(64) // n = 8192: far beyond explicit APSP
	n := tor.N()
	b.ResetTimer()
	sum := 0
	for i := 0; i < b.N; i++ {
		sum += tor.Dist(i%n, (i*7919)%n)
	}
	_ = sum
}

// Tentpole ablation: the swap-pricing engine (two patched BFS rows per
// candidate, internal/pricing) vs the naive per-candidate AllPairs path
// (apply the move, recompute all-pairs shortest paths, read the cost,
// revert) on a path graph with n = 256. The acceptance bar for the engine
// is a ≥ 5× speedup here; see README.md for recorded numbers.

func BenchmarkSwapPricingEnginePath256(b *testing.B) {
	g := Path(256)
	v := 128
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.PriceSwaps(g, v, core.Sum, func(core.Move, int64) bool { return true })
	}
}

func BenchmarkSwapPricingNaiveAllPairsPath256(b *testing.B) {
	g := Path(256)
	v := 128
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, w := range g.Neighbors(v) {
			for wp := 0; wp < g.N(); wp++ {
				if wp == v {
					continue
				}
				g.RemoveEdge(v, w)
				added := g.AddEdge(v, wp)
				ap := g.AllPairs()
				var sum int64
				for _, d := range ap.Row(v) {
					sum += int64(d)
				}
				_ = sum
				if added {
					g.RemoveEdge(v, wp)
				}
				g.AddEdge(v, w)
			}
		}
	}
}

// Ablation: engine-backed pricing of all swaps of a vertex vs naive
// apply-BFS-revert per candidate.

func BenchmarkSwapPricingPatch(b *testing.B) {
	g := benchGraph(150, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := i % g.N()
		core.PriceSwaps(g, v, core.Sum, func(core.Move, int64) bool { return true })
	}
}

func BenchmarkSwapPricingNaive(b *testing.B) {
	g := benchGraph(150, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := i % g.N()
		for _, w := range g.Neighbors(v) {
			for wp := 0; wp < g.N(); wp++ {
				if wp == v {
					continue
				}
				core.EvaluateMove(g, core.Move{V: v, Drop: w, Add: wp}, core.Sum)
			}
		}
	}
}

// Ablation: dynamics policies on the same instance.

func benchDynamics(b *testing.B, policy dynamics.Policy) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rng := rand.New(rand.NewSource(7))
		g := treegen.RandomTree(48, rng)
		b.StartTimer()
		res, err := dynamics.Run(g, dynamics.Options{
			Objective: core.Sum, Policy: policy, Seed: 7,
		})
		if err != nil || !res.Converged {
			b.Fatal("dynamics failed")
		}
	}
}

func BenchmarkDynamicsBestResponse(b *testing.B)     { benchDynamics(b, dynamics.BestResponse) }
func BenchmarkDynamicsFirstImprovement(b *testing.B) { benchDynamics(b, dynamics.FirstImprovement) }
func BenchmarkDynamicsRandomImproving(b *testing.B)  { benchDynamics(b, dynamics.RandomImproving) }

// Tentpole ablation: the incremental pricing session held across a whole
// trajectory (dynamics.Run) vs the re-freeze-per-move oracle
// (dynamics.NaiveRun) on 128+ vertex instances; both run single-worker so
// the difference is the snapshot lifecycle, not parallelism. Trajectories
// are bit-identical (see internal/dynamics differential tests), so each
// pair does the same moves. ROADMAP.md records the measured numbers.

func benchDynamicsAblation(b *testing.B, run func(*graph.Graph, dynamics.Options) (*dynamics.Result, error),
	mk func() *graph.Graph, policy dynamics.Policy, obj core.Objective) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := mk()
		b.StartTimer()
		res, err := run(g, dynamics.Options{Objective: obj, Policy: policy, Seed: 7, Workers: 1})
		if err != nil || !res.Converged {
			b.Fatal("dynamics failed", err)
		}
	}
}

func BenchmarkDynamicsSessionBestResponsePath128(b *testing.B) {
	benchDynamicsAblation(b, dynamics.Run, func() *graph.Graph { return Path(128) },
		dynamics.BestResponse, core.Sum)
}

func BenchmarkDynamicsRefreezeBestResponsePath128(b *testing.B) {
	benchDynamicsAblation(b, dynamics.NaiveRun, func() *graph.Graph { return Path(128) },
		dynamics.BestResponse, core.Sum)
}

func BenchmarkDynamicsSessionFirstImprovementPath128(b *testing.B) {
	benchDynamicsAblation(b, dynamics.Run, func() *graph.Graph { return Path(128) },
		dynamics.FirstImprovement, core.Sum)
}

func BenchmarkDynamicsRefreezeFirstImprovementPath128(b *testing.B) {
	benchDynamicsAblation(b, dynamics.NaiveRun, func() *graph.Graph { return Path(128) },
		dynamics.FirstImprovement, core.Sum)
}

func BenchmarkDynamicsSessionRandomImprovingPath128(b *testing.B) {
	benchDynamicsAblation(b, dynamics.Run, func() *graph.Graph { return Path(128) },
		dynamics.RandomImproving, core.Sum)
}

func BenchmarkDynamicsRefreezeRandomImprovingPath128(b *testing.B) {
	benchDynamicsAblation(b, dynamics.NaiveRun, func() *graph.Graph { return Path(128) },
		dynamics.RandomImproving, core.Sum)
}

// The 256-vertex torus is already a max equilibrium, so these measure the
// pure certification sweep (one full no-move pass) with and without the
// per-vertex re-freeze.

func BenchmarkDynamicsSessionCertifyTorus256(b *testing.B) {
	benchDynamicsAblation(b, dynamics.Run, func() *graph.Graph { return NewTorus(8).Graph() },
		dynamics.BestResponse, core.Max)
}

func BenchmarkDynamicsRefreezeCertifyTorus256(b *testing.B) {
	benchDynamicsAblation(b, dynamics.NaiveRun, func() *graph.Graph { return NewTorus(8).Graph() },
		dynamics.BestResponse, core.Max)
}

// Trajectory-batched certification: the same random-improving run with
// its certification sweeps routed through the batched cross-agent pass,
// whose shared rows persist in the session's RowCache across the
// trajectory's sweeps (only rows invalidated by applied moves are
// recomputed). The trajectory is bit-identical to the unbatched run
// (internal/dynamics differential tests); the row-reuse-vs-fresh ablation
// at the sweep level lives in internal/game's CertifySweeps/SweepRows
// benchmarks. ROADMAP.md records the measured numbers.

func BenchmarkDynamicsSessionRandomImprovingBatchedPath128(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := Path(128)
		b.StartTimer()
		res, err := dynamics.Run(g, dynamics.Options{
			Objective: core.Sum, Policy: dynamics.RandomImproving,
			Seed: 7, Workers: 1, BatchedSweeps: true,
		})
		if err != nil || !res.Converged {
			b.Fatal("dynamics failed", err)
		}
	}
}

// Row-cached per-agent dynamics: the same trajectories as the Session
// ablation pair above, with BatchedSweeps routing the per-agent policy
// scans, the random policy's probes, and the certification sweeps through
// the session RowCache. With the exact remove-invalidation test and
// ApplySwap's insert-before-remove ordering, an applied move near
// equilibrium invalidates O(1) rows, so the hot loop reprices from cached
// rows instead of paying ~n BFS per scan. Trajectories are bit-identical
// to the uncached counterparts (internal/dynamics differential tests).

func benchDynamicsRowCached(b *testing.B, policy dynamics.Policy) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := Path(128)
		b.StartTimer()
		res, err := dynamics.Run(g, dynamics.Options{
			Objective: core.Sum, Policy: policy,
			Seed: 7, Workers: 1, BatchedSweeps: true,
		})
		if err != nil || !res.Converged {
			b.Fatal("dynamics failed", err)
		}
	}
}

func BenchmarkDynamicsSessionBestResponseRowCachedPath128(b *testing.B) {
	benchDynamicsRowCached(b, dynamics.BestResponse)
}

func BenchmarkDynamicsSessionFirstImprovementRowCachedPath128(b *testing.B) {
	benchDynamicsRowCached(b, dynamics.FirstImprovement)
}

func BenchmarkDynamicsSessionRandomImprovingRowCachedPath128(b *testing.B) {
	benchDynamicsRowCached(b, dynamics.RandomImproving)
}

// Invalidation rate at the cache level: a warm 128-vertex cache under an
// equidistant re-point apply/undo cycle — the near-equilibrium move shape.
// The exact remove test keeps all but 3 rows per direction (the old
// conservative rule flagged all n), so rows-recomputed/op stays constant
// in n; the metric makes the drop visible in BENCH artifacts.

func BenchmarkRowCacheSwapInvalidation(b *testing.B) {
	const n = 128
	g := graph.New(n)
	g.AddEdge(0, 1)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	for v := 4; v < n; v++ {
		g.AddEdge(v-1, v)
	}
	s := pricing.Shared(1).NewSession(g)
	cache := s.RowCache()
	cache.Sync(1, nil)
	start := cache.Recomputed()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ApplySwap(0, 1, 2)
		cache.Sync(1, nil)
		s.Undo()
		cache.Sync(1, nil)
	}
	b.StopTimer()
	b.ReportMetric(float64(cache.Recomputed()-start)/float64(b.N), "rows/op")
}

// Multicore sweep targets (make benchmulti): every worker count here
// resolves from GOMAXPROCS, so `go test -cpu=1,2,4,8 -bench=^BenchmarkMulti`
// produces the scaling datapoints for the three parallel datapaths — the
// sharded scan engine, the batched cross-agent sweep, and the row cache's
// sharded Sync. Verdicts and rows are worker-count invariant (pinned by
// TestModelsScanWorkerInvariant and the row-cache differentials), so the
// sweep measures scheduling only.

func BenchmarkMultiScanEngineTorus256(b *testing.B) {
	g := NewTorus(8).Graph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ok, _, err := core.CheckMax(g, 0); !ok || err != nil {
			b.Fatal("torus rejected")
		}
	}
}

func BenchmarkMultiBatchedSweepTorus256(b *testing.B) {
	inst := game.Swap{}.New(NewTorus(8).Graph(), 0)
	defer game.CloseInstance(inst)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, ok := game.FindImprovementBatched(inst, core.Max); ok {
			b.Fatal("torus equilibrium regressed")
		}
	}
}

func BenchmarkMultiRowCacheSyncPath256(b *testing.B) {
	workers := runtime.GOMAXPROCS(0)
	s := pricing.Shared(workers).NewSession(Path(256))
	defer s.Close()
	cache := s.RowCache()
	cache.Sync(workers, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A mid-path cut and its undo invalidate every row (both genuinely
		// change all distances), so each Sync rebuilds all n rows sharded
		// across the workers.
		s.ApplyRemove(127, 128)
		s.ApplyAdd(127, 128)
		cache.Sync(workers, nil)
	}
}

// Greedy certification, per-agent vs batched: the greedy model is the
// batched pass's best case — its add stage prices every candidate exactly
// from the shared full-graph rows (adding an edge excludes no vertex), so
// a full stable pass pays n row BFS instead of n² add-stage BFS, with no
// verification pass at all. Star(128) at edge cost 2 is greedy-stable
// under sum, so both sides measure the full no-move sweep.

func benchGreedyCertifyStar128(b *testing.B, batched bool) {
	inst := game.Greedy{EdgeCost: 2}.New(Star(128), 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var ok bool
		if batched {
			_, _, _, ok = game.FindImprovementBatched(inst, core.Sum)
		} else {
			_, _, _, ok = inst.FindImprovement(core.Sum)
		}
		if ok {
			b.Fatal("star must be greedy-stable at edge cost 2")
		}
	}
}

func BenchmarkGreedyCertifyStar128PerAgent(b *testing.B) { benchGreedyCertifyStar128(b, false) }
func BenchmarkGreedyCertifyStar128Batched(b *testing.B)  { benchGreedyCertifyStar128(b, true) }

// Deviation-model benchmarks: the Greedy and Interests models end-to-end
// through the model-generic dynamics driver, and the probe-row cache
// behind SwapSession.PriceMove (the random-improving ablation above
// measures its trajectory-level effect; this isolates the warm-cache probe
// path). ROADMAP.md records the measured numbers.

func benchModelDynamics(b *testing.B, model game.Model, policy dynamics.Policy) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rng := rand.New(rand.NewSource(7))
		g := treegen.RandomTree(64, rng)
		b.StartTimer()
		// Interests dynamics may legally cycle; the cap makes the work
		// deterministic either way.
		if _, err := dynamics.Run(g, dynamics.Options{
			Objective: core.Sum, Policy: policy, Model: model,
			Workers: 1, Seed: 7, MaxMoves: 500,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDynamicsGreedyBestResponse64(b *testing.B) {
	benchModelDynamics(b, game.Greedy{EdgeCost: 2}, dynamics.BestResponse)
}

func BenchmarkDynamicsInterestsFirstImprovement64(b *testing.B) {
	irng := rand.New(rand.NewSource(3))
	benchModelDynamics(b, game.RandomInterests(64, 0.3, irng), dynamics.FirstImprovement)
}

func BenchmarkDynamicsBudgetBestResponse64(b *testing.B) {
	benchModelDynamics(b, game.Budget{K: 3}, dynamics.BestResponse)
}

func BenchmarkDynamicsTwoNeighborhood64(b *testing.B) {
	benchModelDynamics(b, game.TwoNeighborhood{}, dynamics.BestResponse)
}

// Sharded Interests scan ablation: the interest-aware certification sweep
// on a 256-vertex star (a stable position, so the sweep is a full
// no-violation pass over every agent) with dense and sparse interest sets,
// sequential vs all-core sharding. The dense case is the lever's target —
// the Θ(|I(v)|) per-candidate reduction rides on every per-endpoint BFS —
// and the sparse case pins the no-regression bar. ROADMAP.md records the
// measured numbers.

func benchInterestsCheck(b *testing.B, p float64, workers int) {
	n := 256
	irng := rand.New(rand.NewSource(11))
	model := game.RandomInterests(n, p, irng)
	inst := model.New(Star(n), workers)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stable, viol, err := inst.CheckStable(core.Sum)
		if err != nil || !stable {
			b.Fatal("star rejected:", viol, err)
		}
	}
}

func BenchmarkCheckInterestsDense256(b *testing.B)  { benchInterestsCheck(b, 0.9, 0) }
func BenchmarkCheckInterestsSparse256(b *testing.B) { benchInterestsCheck(b, 0.05, 0) }

// benchInterestsCheckBatched runs the same full stable-position sweep
// through the batched cross-agent pass: endpoint rows are computed once
// and every per-leaf candidate scan reduces against them first, paying an
// exact deviator-excluded BFS only for flagged candidates.
func benchInterestsCheckBatched(b *testing.B, p float64, workers int) {
	n := 256
	irng := rand.New(rand.NewSource(11))
	model := game.RandomInterests(n, p, irng)
	inst := model.New(Star(n), workers).(game.BatchedSweeper)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, ok := inst.FindImprovementBatched(core.Sum); ok {
			b.Fatal("star rejected")
		}
	}
}

func BenchmarkCheckInterestsDense256Batched(b *testing.B) {
	benchInterestsCheckBatched(b, 0.9, 0)
}

func BenchmarkCheckInterestsSparse256Batched(b *testing.B) {
	benchInterestsCheckBatched(b, 0.05, 0)
}

func BenchmarkCheckInterestsDense256Sequential(b *testing.B) {
	benchInterestsCheck(b, 0.9, 1)
}

func BenchmarkCheckInterestsSparse256Sequential(b *testing.B) {
	benchInterestsCheck(b, 0.05, 1)
}

func BenchmarkSwapPriceMoveWarmCache(b *testing.B) {
	// Repeated probes of an unchanged position: after the first pass every
	// PriceMove is two cache hits instead of two BFS passes.
	g := Path(128)
	sess := core.NewSession(g, 1)
	rng := rand.New(rand.NewSource(9))
	moves := make([]core.Move, 0, 64)
	for len(moves) < 64 {
		if m, ok := sess.Instance().Sample(rng); ok {
			moves = append(moves, m)
		}
	}
	for _, m := range moves { // prime the cache
		sess.PriceMove(m, core.Sum)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess.PriceMove(moves[i%len(moves)], core.Sum)
	}
}

func BenchmarkSwapPriceMoveNoCache(b *testing.B) {
	// The same probes priced from two fresh BFS rows over the live view —
	// the pre-cache probe path.
	g := Path(128)
	sess := core.NewSession(g, 1)
	rng := rand.New(rand.NewSource(9))
	moves := make([]core.Move, 0, 64)
	for len(moves) < 64 {
		if m, ok := sess.Instance().Sample(rng); ok {
			moves = append(moves, m)
		}
	}
	view := sess.View()
	n := view.N()
	dv := make([]int32, n)
	dw := make([]int32, n)
	queue := make([]int32, 0, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := moves[i%len(moves)]
		view.BFSSkipEdge(m.V, m.V, m.Drop, dv, queue)
		view.BFSSkipVertex(m.Add, m.V, dw, queue)
		pricing.Patched(dv, dw, pricing.Sum)
	}
}

func BenchmarkGraph6RoundTrip(b *testing.B) {
	g := benchGraph(200, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := ToGraph6(g)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := FromGraph6(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIsoCertificateExact(b *testing.B) {
	g := Star(8) // n=8: full permutation canonicalization
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iso.Certificate(g)
	}
}

func BenchmarkIsoCertificateRefine(b *testing.B) {
	g := NewTorus(6).Graph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iso.Certificate(g)
	}
}

func BenchmarkNashBestResponse(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	g := treegen.RandomTree(40, rng)
	st, err := nash.NewState(g, games.MinOwnership(g), 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.BestResponse(i % g.N())
	}
}

func BenchmarkPruferDecode(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	n := 512
	seq := make([]int, n-2)
	for i := range seq {
		seq[i] = rng.Intn(n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := treegen.PruferDecode(seq); err != nil {
			b.Fatal(err)
		}
	}
}
