package game

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/graph"
	"repro/internal/pricing"
	"repro/internal/scan"
)

// Interests is the communication-interests variant of the basic game
// (Cord-Landwehr et al., "Basic Network Creation Games with Communication
// Interests"): the move set is the single-edge swap, but agent v's cost
// counts only distances to its interest set I(v) —
//
//	cost_sum(v) = Σ_{u ∈ I(v)} d(v,u),   cost_max(v) = max_{u ∈ I(v)} d(v,u)
//
// — InfCost when some interested target is unreachable, 0 when I(v) is
// empty. Because an agent is indifferent to vertices outside I(v), an
// improving swap may disconnect uninterested parts of the graph; the
// pricers therefore never assume connectivity.
//
// Pricing is interest-aware end to end: scans reuse the engine's patched
// BFS rows (one row per candidate endpoint shared across dropped edges)
// but reduce them over I(v) only (pricing.PatchedSubset), so restricting
// interests costs nothing over the basic game's pricing.
type Interests struct {
	sets [][]int32
}

// NewInterests builds the model from per-vertex interest sets: sets[v]
// lists the vertices v cares about. Sets are copied and normalized
// (sorted, deduplicated, self-interest dropped); sets may be shorter than
// the graph — missing tails are empty sets. Interest sets need not be
// symmetric.
func NewInterests(sets [][]int32) Interests {
	norm := make([][]int32, len(sets))
	for v, set := range sets {
		s := append([]int32(nil), set...)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		out := s[:0]
		var prev int32 = -1
		for _, u := range s {
			if u == int32(v) || u == prev {
				continue
			}
			out = append(out, u)
			prev = u
		}
		norm[v] = out
	}
	return Interests{sets: norm}
}

// UniformInterests returns the model with every vertex interested in every
// other vertex — the degenerate case that coincides with the basic swap
// game (same costs, same improving moves).
func UniformInterests(n int) Interests {
	sets := make([][]int32, n)
	for v := range sets {
		set := make([]int32, 0, n-1)
		for u := 0; u < n; u++ {
			if u != v {
				set = append(set, int32(u))
			}
		}
		sets[v] = set
	}
	return Interests{sets: sets}
}

// RandomInterests draws each ordered pair (v, u), v ≠ u, into I(v)
// independently with probability p.
func RandomInterests(n int, p float64, rng *rand.Rand) Interests {
	sets := make([][]int32, n)
	for v := range sets {
		for u := 0; u < n; u++ {
			if u != v && rng.Float64() < p {
				sets[v] = append(sets[v], int32(u))
			}
		}
	}
	return Interests{sets: sets}
}

// Sets returns the normalized per-vertex interest sets (owned by the
// model; do not modify).
func (m Interests) Sets() [][]int32 { return m.sets }

// Name returns "interests".
func (Interests) Name() string { return "interests" }

// set returns I(v), tolerating vertices past the configured sets.
func (m Interests) set(v int) []int32 {
	if v < len(m.sets) {
		return m.sets[v]
	}
	return nil
}

// validate panics when a configured interest targets a vertex outside g.
func (m Interests) validate(g *graph.Graph) {
	n := int32(g.N())
	for v, set := range m.sets {
		for _, u := range set {
			if u < 0 || u >= n {
				panic(fmt.Sprintf("game: Interests set of %d targets %d, graph has n=%d", v, u, n))
			}
		}
	}
}

// New starts an incremental interests session on g.
func (m Interests) New(g *graph.Graph, workers int) Instance {
	m.validate(g)
	workers = normWorkers(workers)
	eng := pricing.Shared(workers)
	return &interestsSession{g: g, ps: eng.NewSession(g), eng: eng, workers: workers, model: m}
}

// Naive returns the apply-measure-revert oracle instance.
func (m Interests) Naive(g *graph.Graph, workers int) Instance {
	m.validate(g)
	return &interestsNaive{g: g, workers: normWorkers(workers), model: m}
}

// ---------------------------------------------------------------------------
// Fast instance.

// interestsSession prices interest-restricted swaps over a live pricing
// session: per-agent scans reuse the engine's dropped-edge rows and one
// BFS per candidate endpoint, reduced over I(v). The enumeration is the
// basic game's add-major order; ties keep the enumeration-first candidate.
// Candidate endpoints are sharded across the session's workers *inside*
// each vertex (scanSwaps), the way swapScan shards the basic game's
// checker: with dense interest sets the per-candidate Θ(|I(v)|) reduction
// rides on top of every per-endpoint BFS, and both now split across cores
// while staying bit-identical to the sequential scan.
type interestsSession struct {
	g       *graph.Graph
	ps      *pricing.Session
	eng     *pricing.Engine
	workers int
	model   Interests
}

func (s *interestsSession) Graph() *graph.Graph { return s.g }

// SetScanCancel installs a cooperative cancel hook on the session's
// per-agent scans (see ScanCanceller).
func (s *interestsSession) SetScanCancel(cancel func() bool) { s.ps.SetCancel(cancel) }

func (s *interestsSession) Cost(v int, obj Objective) int64 {
	dist, queue, release := s.eng.Scratch(s.ps.N())
	defer release()
	s.ps.View().BFSInto(v, dist, queue)
	return pricing.UsageSubset(dist, s.model.set(v), pobj(obj))
}

func (s *interestsSession) SocialCost(obj Objective) int64 {
	n := s.ps.N()
	view := s.ps.View()
	dist, queue, release := s.eng.Scratch(n)
	defer release()
	var total int64
	for v := 0; v < n; v++ {
		view.BFSInto(v, dist, queue)
		c := pricing.UsageSubset(dist, s.model.set(v), pobj(obj))
		if c >= InfCost {
			return InfCost
		}
		total += c
	}
	return total
}

func (s *interestsSession) BestMove(v int, obj Objective) (Move, int64, int64, bool) {
	return s.scanMoves(v, obj, false, nil)
}

func (s *interestsSession) FirstImproving(v int, obj Objective) (Move, int64, int64, bool) {
	return s.scanMoves(v, obj, true, nil)
}

// scanMoves runs agent v's interest-restricted swap scan (scanSwaps) in
// the basic game's add-major order against cur = cost over I(v). Adds
// onto existing neighbors realize pure deletions, and a deletion never
// shortens any distance, so such candidates can never price strictly
// below cur: skipping them drops the endpoint's BFS and its whole
// per-drop reduction without changing any scan outcome (the naive oracle
// still enumerates them, so the differential suite pins this). On
// hub-heavy positions this removes the hub's entire O(n·deg·|I|) scan.
// The cost reads an endpoint's row only at I(v), so once the scan has
// paid |I(v)| endpoint BFS it switches to target-major pricing — |I(v)|
// BFS of G−v from the targets price every remaining candidate exactly —
// and under max the far-set filter draws its landmarks from I(v). rows,
// when set, puts the shared-row filter in front.
func (s *interestsSession) scanMoves(v int, obj Objective, firstOnly bool, rows rowLookup) (best Move, oldCost, newCost int64, ok bool) {
	po := pobj(obj)
	set := s.model.set(v)
	view := s.ps.View()
	sc := s.ps.NewScan(v)
	defer sc.Close()
	cur := pricing.UsageSubset(sc.CurrentRow(), set, po)
	cfg := swapCands{
		workers: s.workers,
		skipAdd: adjacentTo(view, v),
		price: func(dv, dw []int32, threshold int64) (int64, bool) {
			return pricing.PatchedSubsetBelow(dv, dw, set, po, threshold)
		},
		threshold: cur,
		firstOnly: firstOnly,
		order:     scan.ByEnumeration,
		rows:      rows,
		targets: &targetMajor{
			rows: newLazyRows(s.eng, view, v, set),
			price: func(dv []int32, cols [][]int32, add int, threshold int64) (int64, bool) {
				return pricing.PatchedTargetsBelow(dv, set, cols, add, po, threshold)
			},
		},
	}
	if obj == Max && len(set) > 0 {
		cfg.far = newFarFilter(s.eng, view, v, sc.CurrentRow(), set, false, sc.DropRows(), 0)
	}
	cand, found := scanSwaps(s.eng, view, sc, cfg)
	if !found {
		return best, cur, cur, false
	}
	return candMove(sc, cand), cur, cand.Cost, true
}

func (s *interestsSession) PriceMove(m Move, obj Objective) int64 {
	n := s.ps.N()
	view := s.ps.View()
	dv, qv, relV := s.eng.Scratch(n)
	defer relV()
	dw, qw, relW := s.eng.Scratch(n)
	defer relW()
	view.BFSSkipEdge(m.V, m.V, m.Drop, dv, qv)
	view.BFSSkipVertex(m.Add, m.V, dw, qw)
	return pricing.PatchedSubset(dv, dw, s.model.set(m.V), pobj(obj))
}

func (s *interestsSession) Sample(rng *rand.Rand) (Move, bool) {
	view := s.ps.View()
	return sampleSwap(rng, view.N(), view.Degree, func(v, i int) int {
		return int(view.Neighbors(v)[i])
	})
}

func (s *interestsSession) Apply(m Move) (undo func()) {
	if m.Kind != KindSwap {
		panic("game: interests Apply: move kind " + m.Kind.String())
	}
	gundo := ApplyToGraph(s.g, m)
	s.ps.ApplySwap(m.V, m.Drop, m.Add)
	return func() {
		s.ps.Undo()
		gundo()
	}
}

func (s *interestsSession) FindImprovement(obj Objective) (Move, int64, int64, bool) {
	return findImprovement(s, obj)
}

func (s *interestsSession) CheckStable(obj Objective) (bool, *Violation, error) {
	return sweepStable(s, obj)
}

// ---------------------------------------------------------------------------
// Naive instance.

// interestsNaive prices every candidate by apply-BFS-revert on the map
// graph, reduced over I(v), in the same add-major enumeration order as
// interestsSession.
type interestsNaive struct {
	g       *graph.Graph
	workers int
	model   Interests
}

func (s *interestsNaive) Graph() *graph.Graph { return s.g }

func (s *interestsNaive) Cost(v int, obj Objective) int64 {
	return pricing.UsageSubset(s.g.BFS(v), s.model.set(v), pobj(obj))
}

func (s *interestsNaive) SocialCost(obj Objective) int64 {
	var total int64
	for v := 0; v < s.g.N(); v++ {
		c := s.Cost(v, obj)
		if c >= InfCost {
			return InfCost
		}
		total += c
	}
	return total
}

func (s *interestsNaive) BestMove(v int, obj Objective) (Move, int64, int64, bool) {
	return s.scanMoves(v, obj, false)
}

func (s *interestsNaive) FirstImproving(v int, obj Objective) (Move, int64, int64, bool) {
	return s.scanMoves(v, obj, true)
}

func (s *interestsNaive) scanMoves(v int, obj Objective, firstOnly bool) (best Move, oldCost, newCost int64, ok bool) {
	n := s.g.N()
	cur := s.Cost(v, obj)
	bestCost := cur
	nbs := s.g.Neighbors(v)
	for add := 0; add < n; add++ {
		if add == v {
			continue
		}
		for _, w := range nbs {
			m := Move{V: v, Drop: w, Add: add}
			if c := s.PriceMove(m, obj); c < bestCost {
				bestCost, best, ok = c, m, true
				if firstOnly {
					return best, cur, bestCost, true
				}
			}
		}
	}
	return best, cur, bestCost, ok
}

func (s *interestsNaive) PriceMove(m Move, obj Objective) int64 {
	undo := applyLoose(s.g, m)
	row := s.g.BFS(m.V)
	undo()
	return pricing.UsageSubset(row, s.model.set(m.V), pobj(obj))
}

func (s *interestsNaive) Sample(rng *rand.Rand) (Move, bool) {
	return sampleSwap(rng, s.g.N(), s.g.Degree, func(v, i int) int {
		return s.g.Neighbors(v)[i]
	})
}

func (s *interestsNaive) Apply(m Move) (undo func()) {
	if m.Kind != KindSwap {
		panic("game: interests naive Apply: move kind " + m.Kind.String())
	}
	return ApplyToGraph(s.g, m)
}

func (s *interestsNaive) FindImprovement(obj Objective) (Move, int64, int64, bool) {
	return findImprovement(s, obj)
}

func (s *interestsNaive) CheckStable(obj Objective) (bool, *Violation, error) {
	return sweepStable(s, obj)
}
