package game

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/pricing"
	"repro/internal/scan"
)

// DefaultBudget is the CLI default for the bounded-budget model's uniform
// per-vertex edge budget.
const DefaultBudget = 3

// Budget is the bounded-budget variant of the basic game, after Ehsani et
// al. ("On a Bounded Budget Network Creation Game"): agents still play the
// single-edge swap priced under SUM or MAX usage cost, but every vertex can
// maintain at most K incident edges, so a deviation may only re-point an
// edge onto a vertex with spare budget. Concretely, a candidate v: drop→add
// that would create a new edge v–add is feasible only when deg(add) < K —
// the receiving endpoint must have room for one more link. The mover's own
// budget is never at issue (a swap keeps deg(v) unchanged), and degenerate
// candidates (add == drop no-ops, adds onto existing neighbors, which price
// as pure deletions) create no edge and stay feasible, exactly as in the
// swap model.
//
// Two structural consequences the tests and experiment E18 pin down:
//
//   - deg(u) ≤ max(deg₀(u), K) is invariant along any trajectory — a vertex
//     at or over budget never receives another edge, so vertices that start
//     over budget can only shed edges; and
//   - with K ≥ n−1 no constraint ever binds and the model coincides with
//     Swap (same costs, same improving-move prices, same verdicts), the
//     bounded-budget analog of the uniform-interests degeneration.
//
// Small budgets forbid the paper's low-diameter equilibria (the sum star
// needs a hub of degree n−1), so equilibrium diameter grows as K shrinks —
// the budget/diameter trade-off of the bounded-budget literature.
type Budget struct {
	// K is the uniform per-vertex budget (maximum maintained edges). Values
	// < 1 are rejected by New/Naive.
	K int
}

// Name returns "budget".
func (Budget) Name() string { return "budget" }

// validate panics on a non-positive budget (every edge needs two units of
// budget somewhere, so K < 1 admits no graphs at all).
func (m Budget) validate() {
	if m.K < 1 {
		panic(fmt.Sprintf("game: Budget.K = %d, need K >= 1", m.K))
	}
}

// New starts an incremental budget session on g.
func (m Budget) New(g *graph.Graph, workers int) Instance {
	m.validate()
	workers = normWorkers(workers)
	eng := pricing.Shared(workers)
	return &budgetSession{g: g, ps: eng.NewSession(g), eng: eng, workers: workers, k: m.K}
}

// Naive returns the re-freeze oracle instance: scans price over a fresh
// frozen snapshot per call, probes by apply-measure-revert.
func (m Budget) Naive(g *graph.Graph, workers int) Instance {
	m.validate()
	return &budgetNaive{g: g, workers: normWorkers(workers), k: m.K}
}

// budgetFresh reports whether the candidate endpoint add would receive a
// new edge from v — the only case the budget constrains.
func budgetFresh(v, add int, hasEdge func(u, v int) bool) bool {
	return add != v && !hasEdge(v, add)
}

// ---------------------------------------------------------------------------
// Fast instance.

// budgetSession prices budget-feasible swaps over a live pricing session.
// The enumeration is the basic game's add-major order with over-budget
// fresh endpoints filtered out before their BFS is paid; per-agent scans
// are sharded across the session's workers with the deterministic
// enumeration-first merge (scanSwaps), so witnesses are identical for
// any worker count.
type budgetSession struct {
	g       *graph.Graph
	ps      *pricing.Session
	eng     *pricing.Engine
	workers int
	k       int
}

func (s *budgetSession) Graph() *graph.Graph { return s.g }

// SetScanCancel installs a cooperative cancel hook on the session's
// per-agent scans (see ScanCanceller).
func (s *budgetSession) SetScanCancel(cancel func() bool) { s.ps.SetCancel(cancel) }

func (s *budgetSession) Cost(v int, obj Objective) int64 {
	dist, queue, release := s.eng.Scratch(s.ps.N())
	defer release()
	s.ps.View().BFSInto(v, dist, queue)
	return pricing.Usage(dist, pobj(obj))
}

func (s *budgetSession) SocialCost(obj Objective) int64 {
	n := s.ps.N()
	view := s.ps.View()
	dist, queue, release := s.eng.Scratch(n)
	defer release()
	var total int64
	for v := 0; v < n; v++ {
		view.BFSInto(v, dist, queue)
		c := pricing.Usage(dist, pobj(obj))
		if c >= InfCost {
			return InfCost
		}
		total += c
	}
	return total
}

func (s *budgetSession) BestMove(v int, obj Objective) (Move, int64, int64, bool) {
	return s.scanMoves(v, obj, false, nil)
}

func (s *budgetSession) FirstImproving(v int, obj Objective) (Move, int64, int64, bool) {
	return s.scanMoves(v, obj, true, nil)
}

// scanMoves is the swap model's per-agent scan (swapAgentScan) with
// infeasible fresh targets (no budget room) skipped alongside adds onto
// existing neighbors — the latter are pure deletions, which never price
// strictly below cur under a distance cost (the naive oracle keeps
// enumerating everything, pinning that the skip is outcome-preserving).
// rows, when set, puts the shared-row filter in front.
func (s *budgetSession) scanMoves(v int, obj Objective, firstOnly bool, rows rowLookup) (Move, int64, int64, bool) {
	view := s.ps.View()
	sc := s.ps.NewScan(v)
	defer sc.Close()
	cand, cur, found := swapAgentScan(s.eng, view, sc, obj,
		func(add int) bool {
			return view.HasEdge(v, add) || view.Degree(add) >= s.k
		},
		firstOnly, scan.ByEnumeration, rows)
	if !found {
		return Move{}, cur, cur, false
	}
	return candMove(sc, cand), cur, cand.Cost, true
}

// PriceMove prices a single feasible candidate from two patched BFS rows
// over the live snapshot; it equals Evaluate(g, m, obj) on the synced
// graph. Feasibility is the caller's contract (Sample never emits an
// over-budget move).
func (s *budgetSession) PriceMove(m Move, obj Objective) int64 {
	n := s.ps.N()
	view := s.ps.View()
	dv, qv, relV := s.eng.Scratch(n)
	defer relV()
	dw, qw, relW := s.eng.Scratch(n)
	defer relW()
	view.BFSSkipEdge(m.V, m.V, m.Drop, dv, qv)
	view.BFSSkipVertex(m.Add, m.V, dw, qw)
	return pricing.Patched(dv, dw, pobj(obj))
}

// Sample draws the swap model's probe and rejects budget-infeasible draws
// as wasted probes; the rng consumption is identical to the naive instance
// (and to the plain swap model).
func (s *budgetSession) Sample(rng *rand.Rand) (Move, bool) {
	view := s.ps.View()
	m, ok := sampleSwap(rng, view.N(), view.Degree, func(v, i int) int {
		return int(view.Neighbors(v)[i])
	})
	if !ok || (budgetFresh(m.V, m.Add, view.HasEdge) && view.Degree(m.Add) >= s.k) {
		return Move{}, false
	}
	return m, true
}

// Apply performs the swap on both structures, panicking on over-budget
// targets so a desynchronized caller cannot silently break the degree
// invariant.
func (s *budgetSession) Apply(m Move) (undo func()) {
	if m.Kind != KindSwap {
		panic("game: budget Apply: move kind " + m.Kind.String())
	}
	if budgetFresh(m.V, m.Add, s.g.HasEdge) && s.g.Degree(m.Add) >= s.k {
		panic(fmt.Sprintf("game: budget Apply: target %d already at budget %d", m.Add, s.k))
	}
	gundo := ApplyToGraph(s.g, m)
	s.ps.ApplySwap(m.V, m.Drop, m.Add)
	return func() {
		s.ps.Undo()
		gundo()
	}
}

func (s *budgetSession) FindImprovement(obj Objective) (Move, int64, int64, bool) {
	return findImprovement(s, obj)
}

// twinView declares the budget model's agents interchangeable: the budget
// K is the same for every vertex (see sweep).
func (s *budgetSession) twinView() adjacency { return s.ps.View() }

func (s *budgetSession) CheckStable(obj Objective) (bool, *Violation, error) {
	return sweepStable(s, obj)
}

// ---------------------------------------------------------------------------
// Naive instance.

// budgetNaive is the re-freeze oracle: every scan prices over a fresh
// frozen snapshot (the pre-session lifecycle), probes pay apply-measure-
// revert on the mutable graph.
type budgetNaive struct {
	g       *graph.Graph
	workers int
	k       int
}

func (s *budgetNaive) Graph() *graph.Graph { return s.g }

func (s *budgetNaive) Cost(v int, obj Objective) int64 { return Cost(s.g, v, obj) }

func (s *budgetNaive) SocialCost(obj Objective) int64 { return SocialCost(s.g, obj) }

func (s *budgetNaive) BestMove(v int, obj Objective) (Move, int64, int64, bool) {
	return s.scanMoves(v, obj, false)
}

func (s *budgetNaive) FirstImproving(v int, obj Objective) (Move, int64, int64, bool) {
	return s.scanMoves(v, obj, true)
}

func (s *budgetNaive) scanMoves(v int, obj Objective, firstOnly bool) (Move, int64, int64, bool) {
	po := pobj(obj)
	f := s.g.Freeze()
	eng := pricing.Shared(s.workers)
	sc := eng.NewScan(f, v)
	defer sc.Close()
	cur := sc.CurrentUsage(po)
	// The oracle skips only what feasibility demands: adjacent adds stay
	// enumerated (they can never win), pinning the fast instance's
	// deletion-skip as outcome-preserving, and no candidate filter runs.
	cand, found := scanSwaps(eng, f, sc, swapCands{
		workers: s.workers,
		skipAdd: func(add int) bool {
			return budgetFresh(v, add, f.HasEdge) && f.Degree(add) >= s.k
		},
		price: func(dv, dw []int32, threshold int64) (int64, bool) {
			c := pricing.Patched(dv, dw, po)
			return c, c < threshold
		},
		threshold: cur,
		firstOnly: firstOnly,
		order:     scan.ByEnumeration,
	})
	if !found {
		return Move{}, cur, cur, false
	}
	return candMove(sc, cand), cur, cand.Cost, true
}

func (s *budgetNaive) PriceMove(m Move, obj Objective) int64 { return Evaluate(s.g, m, obj) }

func (s *budgetNaive) Sample(rng *rand.Rand) (Move, bool) {
	m, ok := sampleSwap(rng, s.g.N(), s.g.Degree, func(v, i int) int {
		return s.g.Neighbors(v)[i]
	})
	if !ok || (budgetFresh(m.V, m.Add, s.g.HasEdge) && s.g.Degree(m.Add) >= s.k) {
		return Move{}, false
	}
	return m, true
}

func (s *budgetNaive) Apply(m Move) (undo func()) {
	if m.Kind != KindSwap {
		panic("game: budget naive Apply: move kind " + m.Kind.String())
	}
	if budgetFresh(m.V, m.Add, s.g.HasEdge) && s.g.Degree(m.Add) >= s.k {
		panic(fmt.Sprintf("game: budget naive Apply: target %d already at budget %d", m.Add, s.k))
	}
	return ApplyToGraph(s.g, m)
}

func (s *budgetNaive) FindImprovement(obj Objective) (Move, int64, int64, bool) {
	return findImprovement(s, obj)
}

func (s *budgetNaive) CheckStable(obj Objective) (bool, *Violation, error) {
	return sweepStable(s, obj)
}
