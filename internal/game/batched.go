package game

import (
	"context"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/pricing"
)

// This file implements the batched cross-agent certification sweep: a
// whole-graph pass that reuses candidate-endpoint BFS rows across
// deviators instead of recomputing them per agent.
//
// The per-agent sweep pays one BFS of G−v per candidate endpoint per
// deviator — Θ(n) BFS per agent, Θ(n²) for a full certification. The
// batched pass instead computes each full-graph row d_G(w,·) at most once
// (up to n BFS, n² int32 of memory — the memory-for-time trade) and
// observes that d_G(w,x) ≤ d_{G−v}(w,x) pointwise, so the patched cost
//
//	Σ_x (or max_x) min(d_{G−vw}(v,x), 1 + d_G(w',x))
//
// is a sound lower bound on the exact post-swap cost: a candidate whose
// bound already prices at or above the admission threshold can be
// discarded without paying its exact G−v BFS, and only flagged candidates
// (those whose shortest paths to some target may run through the deviator)
// are verified exactly. In and near equilibrium — the regime certification
// sweeps live in — almost nothing is flagged, and a full pass costs
// n + 2m + #verified BFS instead of n². The enumeration order, admission
// threshold, and exactness of every returned witness are unchanged, so the
// batched sweep returns bit-identically the same verdict and (lowest-agent,
// enumeration-first) witness as the per-agent FindImprovement.
//
// Session-backed sweeps go one step further: the shared rows live in the
// session's pricing.RowCache, which invalidates only the rows an applied
// move can change, so consecutive sweeps of a trajectory (the random-
// improving certification loop) pay #invalidated BFS instead of n per
// sweep. One-shot checks (CheckSwapBatchedCtx) build each row on first
// touch (firstTouchRows), so a check that exits early, or whose far-set
// filter (filter.go) rejects most endpoints, pays only the rows its
// candidates read.

// rowLookup resolves a candidate endpoint to its full-graph BFS row
// d_G(w,·) — a slice of a fresh per-call arena (batchRows), of a one-shot
// check's first-touch table, or of the session's generation-checked
// RowCache view. built reports whether this lookup paid the row's BFS.
type rowLookup func(w int) (row []int32, built bool)

// batchRows computes the full-graph BFS row d_G(w,·) for every vertex into
// one n² arena, sharded across workers. need filters endpoints whose row
// no deviator will ever read (nil computes all): the budget model skips
// every over-budget endpoint deviator-independently, so their rows stay
// nil.
func batchRows(eng *pricing.Engine, view pricing.Snapshot, workers int, need func(w int) bool) [][]int32 {
	n := view.N()
	rows := make([][]int32, n)
	arena := make([]int32, n*n)
	par.ForChunked(workers, n, func(lo, hi int) {
		_, queue, release := eng.Scratch(n)
		defer release()
		for w := lo; w < hi; w++ {
			if need != nil && !need(w) {
				continue
			}
			row := arena[w*n : (w+1)*n : (w+1)*n]
			view.BFSInto(w, row, queue)
			rows[w] = row
		}
	})
	return rows
}

// firstTouchRows is a one-shot check's shared-row table: row d_G(w,·) is
// built, in its own allocation, the first time a candidate reads it, and
// published with one atomic store, so sharded workers may race on the
// same row — each racer computes identical contents and every reader gets
// a complete row. Rows no candidate reads are never built, which is what
// keeps a check that exits early, or whose far-set filter rejects most
// endpoints, from paying n BFS and an n² block up front.
type firstTouchRows struct {
	eng  *pricing.Engine
	view pricing.Snapshot
	rows []atomic.Pointer[[]int32]
}

func newFirstTouchRows(eng *pricing.Engine, view pricing.Snapshot) *firstTouchRows {
	return &firstTouchRows{eng: eng, view: view, rows: make([]atomic.Pointer[[]int32], view.N())}
}

// row is the table's rowLookup.
func (t *firstTouchRows) row(w int) ([]int32, bool) {
	if p := t.rows[w].Load(); p != nil {
		return *p, false
	}
	n := t.view.N()
	row := make([]int32, n)
	_, queue, release := t.eng.Scratch(n)
	t.view.BFSInto(w, row, queue)
	release()
	if !t.rows[w].CompareAndSwap(nil, &row) {
		return *t.rows[w].Load(), true
	}
	return row, true
}

// BatchedSweeper is the optional Instance capability for batched
// whole-graph certification. Implementations must return bit-identically
// the same result as their FindImprovement; the difference is purely
// performance (endpoint-row reuse across deviators and, for session-backed
// instances, across sweeps) bought with O(n²) resident memory.
type BatchedSweeper interface {
	// FindImprovementBatched is FindImprovement computed via the batched
	// cross-agent pass: same contract, same witness, same costs.
	FindImprovementBatched(obj Objective) (m Move, oldCost, newCost int64, ok bool)
}

// FindImprovementBatched runs the batched certification sweep when the
// instance supports it and falls back to the per-agent FindImprovement
// otherwise (naive oracles, BFS-free models). Callers can therefore
// request batching unconditionally.
func FindImprovementBatched(inst Instance, obj Objective) (Move, int64, int64, bool) {
	if b, ok := inst.(BatchedSweeper); ok {
		return b.FindImprovementBatched(obj)
	}
	return inst.FindImprovement(obj)
}

// sweepRows resolves the shared d_G rows for one session-backed sweep:
// through the session's RowCache when reuse is set (only invalidated rows
// are recomputed; the view panics if read across a mutation), or as
// per-call fresh rows otherwise (the pre-cache behavior, kept for the
// reuse-ablation benchmarks and differential tests).
func sweepRows(eng *pricing.Engine, ps *pricing.Session, workers int, reuse bool, needRow func(add int) bool) rowLookup {
	if reuse {
		view := ps.RowCache().Sync(workers, needRow)
		return func(w int) ([]int32, bool) { return view.Row(w), false }
	}
	rows := batchRows(eng, ps.View(), workers, needRow)
	return func(w int) ([]int32, bool) { return rows[w], false }
}

// batchedSweep is the batched certification sweep of the greedy,
// interests and budget sessions: the shared rows once (restricted to
// endpoints some deviator can use), then the sweep driver over agents,
// each agent's first-improving scan (the model's FirstImproving with the
// shared-row filter in front) run by agent. twins is the session's view
// for the models whose agents are interchangeable, nil for interests.
func batchedSweep(eng *pricing.Engine, ps *pricing.Session, workers int, reuse bool, needRow func(add int) bool,
	twins adjacency, agent func(v int, rows rowLookup) (Move, int64, int64, bool)) (Move, int64, int64, bool) {
	rows := sweepRows(eng, ps, workers, reuse, needRow)
	viol, _ := sweep(nil, ps.N(), twins, func(v int) *Violation {
		return improvement(agent(v, rows))
	})
	return viol.asMove()
}

// FindImprovementBatched is the swap model's batched certification sweep:
// agents ascending, each agent's candidate scan filtered through the
// shared full-graph rows, which persist in the session's RowCache across
// sweeps. It returns exactly FindImprovement's result.
func (s *SwapSession) FindImprovementBatched(obj Objective) (Move, int64, int64, bool) {
	return s.findImprovementBatched(obj, true)
}

func (s *SwapSession) findImprovementBatched(obj Objective, reuse bool) (Move, int64, int64, bool) {
	rows := sweepRows(s.eng, s.ps, s.workers, reuse, nil)
	viol, _ := swapScan(nil, s.eng, s.ps.View(), s.ps.NewScan, obj, false, rows)
	return viol.asMove()
}

// FindImprovementBatched is the interests model's batched certification
// sweep; the interest-restricted reductions run against the shared rows
// first, exact rows only for flagged candidates.
func (s *interestsSession) FindImprovementBatched(obj Objective) (Move, int64, int64, bool) {
	return s.findImprovementBatched(obj, true)
}

func (s *interestsSession) findImprovementBatched(obj Objective, reuse bool) (Move, int64, int64, bool) {
	return batchedSweep(s.eng, s.ps, s.workers, reuse, nil, nil,
		func(v int, rows rowLookup) (Move, int64, int64, bool) { return s.scanMoves(v, obj, true, rows) })
}

// FindImprovementBatched is the budget model's batched certification
// sweep. Over-budget endpoints are infeasible for every deviator (an add
// onto an existing neighbor is skipped regardless), so their shared rows
// are never computed at all; the per-agent filter then only adds the
// adjacency half. The RowCache keeps rows of endpoints that drift in and
// out of budget: a row cached while feasible stays valid (invalidation
// tracks distance changes, not feasibility) and is simply not read while
// the endpoint is over budget.
func (s *budgetSession) FindImprovementBatched(obj Objective) (Move, int64, int64, bool) {
	return s.findImprovementBatched(obj, true)
}

func (s *budgetSession) findImprovementBatched(obj Objective, reuse bool) (Move, int64, int64, bool) {
	view := s.ps.View()
	return batchedSweep(s.eng, s.ps, s.workers, reuse, func(add int) bool { return view.Degree(add) < s.k }, view,
		func(v int, rows rowLookup) (Move, int64, int64, bool) { return s.scanMoves(v, obj, true, rows) })
}

// FindImprovementBatched is the greedy model's batched certification
// sweep: agents ascending, each agent's staged scan (adds, deletions,
// swaps) priced through the shared full-graph rows. The greedy model is
// the batched pass's best case — its add stage prices candidates from
// exactly the rows the cache holds (d_{G+vw}(v,·) patches d_G(v,·) with
// d_G(w,·); no deviator is excluded), so adds need no verification BFS at
// all; deletions price free from the scan's dropped-edge rows as before;
// only the swap stage keeps the filter-then-verify shape of the swap
// model. Results are bit-identical to FindImprovement.
func (s *greedySession) FindImprovementBatched(obj Objective) (Move, int64, int64, bool) {
	return s.findImprovementBatched(obj, true)
}

func (s *greedySession) findImprovementBatched(obj Objective, reuse bool) (Move, int64, int64, bool) {
	return batchedSweep(s.eng, s.ps, s.workers, reuse, nil, s.ps.View(),
		func(v int, rows rowLookup) (Move, int64, int64, bool) { return s.scanMoves(v, obj, true, rows) })
}

// CheckSwapBatched is CheckSwap computed via the batched cross-agent pass:
// same verdict, same deterministic witness (deletion-criticality checks
// still run per agent from the scan's dropped-edge rows; only the
// candidate-endpoint BFS reuse changes). One frozen snapshot, shared rows
// built on first touch, exact verification for flagged candidates only.
func CheckSwapBatched(g *graph.Graph, obj Objective, workers int, deletionCritical bool) (bool, *Violation, error) {
	return CheckSwapBatchedCtx(nil, g, obj, workers, deletionCritical)
}

// CheckSwapBatchedCtx is CheckSwapBatched with cooperative cancellation:
// ctx (nil tolerated) is polled between per-agent scans and, through each
// scan's cancel hook, per candidate endpoint — which is also where the
// shared rows are built, one first touch at a time — and its error is
// returned on expiry. Verdict and witness are bit-identical to
// CheckSwapBatched.
func CheckSwapBatchedCtx(ctx context.Context, g *graph.Graph, obj Objective, workers int, deletionCritical bool) (bool, *Violation, error) {
	n := g.N()
	if n <= 1 {
		return true, nil, nil
	}
	if !g.IsConnected() {
		return false, nil, ErrDisconnected
	}
	eng := pricing.Shared(workers)
	f := g.Freeze()
	rows := newFirstTouchRows(eng, f)
	viol, err := swapScan(ctx, eng, f, func(v int) *pricing.Scan { return eng.NewScan(f, v) },
		obj, deletionCritical, rows.row)
	if err != nil {
		return false, nil, err
	}
	return viol == nil, viol, nil
}
