package game

import (
	"math/rand"

	"repro/internal/graph"
	"repro/internal/pricing"
	"repro/internal/scan"
)

// TwoNeighborhood is the 2-neighborhood maximization variant of the basic
// game (de la Haye et al., "Network Creation Games with 2-Neighborhood
// Maximization"): the move set is still the single-edge swap, but agent v
// MAXIMIZES |N₂(v)| — the number of vertices within distance two — instead
// of minimizing a distance cost. To fit the cost-minimizing Instance
// contract the model prices the complement,
//
//	cost(v) = n − 1 − |N₂(v)| = #{u ≠ v : d(v,u) > 2},
//
// absorbing the objective's sign flip once, here: improving moves are
// exactly the 2-neighborhood-growing swaps. The Objective parameter is
// ignored — the model has a single objective (Sum and Max price
// identically). Vertices beyond distance two count the same whether they
// sit at distance three or are unreachable, so the model tolerates
// disconnection natively: like the interests game, an improving swap may
// legally cut off remote parts of the graph, and dynamics may cycle.
//
// Pricing needs no BFS. After v: drop→add the deviator's 2-neighborhood is
//
//	N₂'(v) = ∪_{w ∈ N'(v)} ({w} ∪ N(w)) \ {v},   N'(v) = N(v) \ {drop} ∪ {add},
//
// and every adjacency list the union reads is unchanged by the move: the
// two patched lists are v's own (replaced by N'(v)) and those of drop and
// add — drop is not in N'(v), and add's list only gains v, which is
// excluded anyway. The fast instance therefore prices every candidate from
// the live CSR adjacency alone, maintaining a multiplicity counter over
// the covered vertices so toggling one endpoint in or out of the union
// costs O(deg) instead of recounting from scratch.
type TwoNeighborhood struct{}

// Name returns "2nb".
func (TwoNeighborhood) Name() string { return "2nb" }

// New starts an adjacency-only session on g.
func (TwoNeighborhood) New(g *graph.Graph, workers int) Instance {
	workers = normWorkers(workers)
	eng := pricing.Shared(workers)
	return &twoNBSession{g: g, ps: eng.NewSession(g), workers: workers}
}

// Naive returns the BFS-backed oracle instance: every probe re-runs a BFS
// on the mutable graph after apply-measure-revert, the slow path the counter
// arithmetic is validated against.
func (TwoNeighborhood) Naive(g *graph.Graph, workers int) Instance {
	return &twoNBNaive{g: g, workers: normWorkers(workers)}
}

// twoNBRowCost reduces a BFS row to the 2-neighborhood cost
// n − 1 − #{u : 1 ≤ d(v,u) ≤ 2} (unreachable entries are simply outside
// the 2-neighborhood; no InfCost saturation is needed).
func twoNBRowCost(row []int32) int64 {
	within := 0
	for _, d := range row {
		if d == 1 || d == 2 {
			within++
		}
	}
	return int64(len(row) - 1 - within)
}

// ---------------------------------------------------------------------------
// Fast instance.

// twoNBSession prices 2-neighborhood swaps from the live CSR adjacency
// with a multiplicity counter: cnt[u] is how many members of the currently
// loaded cover set contribute u, covered counts the distinct u ≠ v with
// cnt[u] > 0. Scans are adjacency-cheap (no BFS), so they run sequentially
// per agent at every worker count; the enumeration is the basic game's
// add-major order with enumeration-first tie-breaks.
type twoNBSession struct {
	g       *graph.Graph
	ps      *pricing.Session
	workers int
	cnt     []int32
	covered int
}

func (s *twoNBSession) Graph() *graph.Graph { return s.g }

// SetScanCancel installs a cooperative cancel hook on the session's
// per-agent scans (see ScanCanceller).
func (s *twoNBSession) SetScanCancel(cancel func() bool) { s.ps.SetCancel(cancel) }

func (s *twoNBSession) ensureScratch() {
	if s.cnt == nil {
		s.cnt = make([]int32, s.ps.N())
	}
}

// addContrib loads w's contribution to deviator v's cover: w itself and
// every neighbor of w, excluding v.
func (s *twoNBSession) addContrib(v, w int, view *graph.Dyn) {
	if w != v {
		if s.cnt[w] == 0 {
			s.covered++
		}
		s.cnt[w]++
	}
	for _, u := range view.Neighbors(w) {
		if int(u) == v {
			continue
		}
		if s.cnt[u] == 0 {
			s.covered++
		}
		s.cnt[u]++
	}
}

// delContrib unloads w's contribution.
func (s *twoNBSession) delContrib(v, w int, view *graph.Dyn) {
	if w != v {
		s.cnt[w]--
		if s.cnt[w] == 0 {
			s.covered--
		}
	}
	for _, u := range view.Neighbors(w) {
		if int(u) == v {
			continue
		}
		s.cnt[u]--
		if s.cnt[u] == 0 {
			s.covered--
		}
	}
}

// loadBase loads every current neighbor of v, returning v's live neighbor
// list (valid until the next mutation).
func (s *twoNBSession) loadBase(v int, view *graph.Dyn) []int32 {
	s.ensureScratch()
	nbs := view.Neighbors(v)
	for _, w := range nbs {
		s.addContrib(v, int(w), view)
	}
	return nbs
}

// unloadBase reverts loadBase; the counter must return to all-zero.
func (s *twoNBSession) unloadBase(v int, nbs []int32, view *graph.Dyn) {
	for _, w := range nbs {
		s.delContrib(v, int(w), view)
	}
}

func (s *twoNBSession) Cost(v int, _ Objective) int64 {
	view := s.ps.View()
	nbs := s.loadBase(v, view)
	c := int64(view.N() - 1 - s.covered)
	s.unloadBase(v, nbs, view)
	return c
}

func (s *twoNBSession) SocialCost(_ Objective) int64 {
	var total int64
	for v := 0; v < s.ps.N(); v++ {
		total += s.Cost(v, Sum)
	}
	return total
}

func (s *twoNBSession) BestMove(v int, obj Objective) (Move, int64, int64, bool) {
	return s.scanMoves(v, false)
}

func (s *twoNBSession) FirstImproving(v int, obj Objective) (Move, int64, int64, bool) {
	return s.scanMoves(v, true)
}

// scanMoves walks the add-major enumeration on the unified scan engine,
// toggling one contribution in and one out per candidate:
// O(deg(add) + vol(N(v))) per endpoint instead of a BFS. Degenerate
// add == drop candidates are no-ops and skipped; adds onto existing
// neighbors price as pure deletions (which never grow a 2-neighborhood,
// but are enumerated for parity with the oracle). The engine runs at one
// worker: the multiplicity counter is a single mutable structure, the
// per-candidate work is adjacency-cheap, and per-chunk counter reloads
// would cost more than they parallelize — the enumeration order, admission
// threshold, and tie-break still come from the one shared protocol.
func (s *twoNBSession) scanMoves(v int, firstOnly bool) (Move, int64, int64, bool) {
	view := s.ps.View()
	n := view.N()
	nbs := s.loadBase(v, view)
	cur := int64(n - 1 - s.covered)
	if cur == 0 {
		// The locality lemma (withinTwo) read off the counter: every vertex
		// is already within distance two, and no cost falls below 0.
		s.unloadBase(v, nbs, view)
		return Move{}, cur, cur, false
	}
	spec := scan.Spec{
		Workers:   1,
		N:         n,
		Threshold: cur,
		Order:     scan.ByEnumeration,
		Skip:      func(add int) bool { return add == v },
		Cancel:    s.ps.CancelHook(),
	}
	state := func() (struct{}, func()) { return struct{}{}, func() {} }
	pricer := func(_ struct{}, add int, threshold func() int64, yield func(int, int64) bool) {
		fresh := !view.HasEdge(v, add)
		if fresh {
			s.addContrib(v, add, view)
		}
		for i := range nbs {
			drop := int(nbs[i])
			if drop == add {
				continue
			}
			s.delContrib(v, drop, view)
			c := int64(n - 1 - s.covered)
			s.addContrib(v, drop, view)
			if c < threshold() {
				if !yield(i, c) {
					break
				}
			}
		}
		if fresh {
			s.delContrib(v, add, view)
		}
	}
	var cand scan.Cand
	var found bool
	if firstOnly {
		cand, found = scan.First(spec, state, pricer)
	} else {
		cand, found = scan.Best(spec, state, pricer)
	}
	s.unloadBase(v, nbs, view)
	if !found {
		return Move{}, cur, cur, false
	}
	return Move{V: v, Drop: int(nbs[cand.DropIdx]), Add: cand.Add}, cur, cand.Cost, true
}

// PriceMove prices one candidate from the counter, with the same
// degenerate-move semantics as Evaluate (a non-edge Drop degenerates to
// pricing the insertion alone, add == drop onto an edge is a no-op).
func (s *twoNBSession) PriceMove(m Move, _ Objective) int64 {
	view := s.ps.View()
	n := view.N()
	nbs := s.loadBase(m.V, view)
	fresh := m.Add != m.V && !view.HasEdge(m.V, m.Add)
	if fresh {
		s.addContrib(m.V, m.Add, view)
	}
	dropped := m.Drop != m.Add && view.HasEdge(m.V, m.Drop)
	if dropped {
		s.delContrib(m.V, m.Drop, view)
	}
	c := int64(n - 1 - s.covered)
	if dropped {
		s.addContrib(m.V, m.Drop, view)
	}
	if fresh {
		s.delContrib(m.V, m.Add, view)
	}
	s.unloadBase(m.V, nbs, view)
	return c
}

func (s *twoNBSession) Sample(rng *rand.Rand) (Move, bool) {
	view := s.ps.View()
	return sampleSwap(rng, view.N(), view.Degree, func(v, i int) int {
		return int(view.Neighbors(v)[i])
	})
}

func (s *twoNBSession) Apply(m Move) (undo func()) {
	if m.Kind != KindSwap {
		panic("game: 2nb Apply: move kind " + m.Kind.String())
	}
	gundo := ApplyToGraph(s.g, m)
	s.ps.ApplySwap(m.V, m.Drop, m.Add)
	return func() {
		s.ps.Undo()
		gundo()
	}
}

func (s *twoNBSession) FindImprovement(obj Objective) (Move, int64, int64, bool) {
	return findImprovement(s, obj)
}

// twinView declares the 2-neighborhood model's agents interchangeable
// (see sweep).
func (s *twoNBSession) twinView() adjacency { return s.ps.View() }

func (s *twoNBSession) CheckStable(obj Objective) (bool, *Violation, error) {
	return sweepStable(s, obj)
}

// ---------------------------------------------------------------------------
// Naive instance.

// twoNBNaive prices every candidate by apply-BFS-revert on the mutable graph in
// the same add-major enumeration order as twoNBSession.
type twoNBNaive struct {
	g       *graph.Graph
	workers int
}

func (s *twoNBNaive) Graph() *graph.Graph { return s.g }

func (s *twoNBNaive) Cost(v int, _ Objective) int64 { return twoNBRowCost(s.g.BFS(v)) }

func (s *twoNBNaive) SocialCost(_ Objective) int64 {
	var total int64
	for v := 0; v < s.g.N(); v++ {
		total += s.Cost(v, Sum)
	}
	return total
}

func (s *twoNBNaive) BestMove(v int, obj Objective) (Move, int64, int64, bool) {
	return s.scanMoves(v, false)
}

func (s *twoNBNaive) FirstImproving(v int, obj Objective) (Move, int64, int64, bool) {
	return s.scanMoves(v, true)
}

func (s *twoNBNaive) scanMoves(v int, firstOnly bool) (Move, int64, int64, bool) {
	n := s.g.N()
	cur := s.Cost(v, Sum)
	nbs := s.g.Neighbors(v)
	var best Move
	bestCost := cur
	found := false
	for add := 0; add < n; add++ {
		if add == v {
			continue
		}
		for _, w := range nbs {
			if w == add {
				continue
			}
			m := Move{V: v, Drop: w, Add: add}
			if c := s.PriceMove(m, Sum); c < bestCost {
				best, bestCost, found = m, c, true
				if firstOnly {
					return best, cur, bestCost, true
				}
			}
		}
	}
	if !found {
		return Move{}, cur, cur, false
	}
	return best, cur, bestCost, true
}

func (s *twoNBNaive) PriceMove(m Move, _ Objective) int64 {
	undo := applyLoose(s.g, m)
	row := s.g.BFS(m.V)
	undo()
	return twoNBRowCost(row)
}

func (s *twoNBNaive) Sample(rng *rand.Rand) (Move, bool) {
	return sampleSwap(rng, s.g.N(), s.g.Degree, func(v, i int) int {
		return s.g.Neighbors(v)[i]
	})
}

func (s *twoNBNaive) Apply(m Move) (undo func()) {
	if m.Kind != KindSwap {
		panic("game: 2nb naive Apply: move kind " + m.Kind.String())
	}
	return ApplyToGraph(s.g, m)
}

func (s *twoNBNaive) FindImprovement(obj Objective) (Move, int64, int64, bool) {
	return findImprovement(s, obj)
}

func (s *twoNBNaive) CheckStable(obj Objective) (bool, *Violation, error) {
	return sweepStable(s, obj)
}
