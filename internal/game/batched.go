package game

import (
	"context"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/pricing"
	"repro/internal/scan"
)

// This file implements the batched cross-agent certification sweep: a
// whole-graph pass that reuses candidate-endpoint BFS rows across
// deviators instead of recomputing them per agent.
//
// The per-agent sweep pays one BFS of G−v per candidate endpoint per
// deviator — Θ(n) BFS per agent, Θ(n²) for a full certification. The
// batched pass instead computes every full-graph row d_G(w,·) once (n BFS,
// n² int32 of memory — the memory-for-time trade) and observes that
// d_G(w,x) ≤ d_{G−v}(w,x) pointwise, so the patched cost
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
// sweep. One-shot checks (CheckSwapBatchedCtx) keep per-call fresh rows.

// rowLookup resolves a candidate endpoint to its full-graph BFS row
// d_G(w,·) — a slice of a fresh per-call arena (batchRows) or of the
// session's generation-checked RowCache view.
type rowLookup func(w int) []int32

// batchRows computes the full-graph BFS row d_G(w,·) for every vertex into
// one n² arena, sharded across workers. need filters endpoints whose row
// no deviator will ever read (nil computes all): the budget model skips
// every over-budget endpoint deviator-independently, so their rows stay
// nil. ctx (nil tolerated) is polled between rows — each row is one
// bounded BFS, so a deadline expiring mid-construction aborts within one
// BFS plus chunk drain instead of overshooting by up to n BFS — and its
// error is returned with nil rows.
func batchRows(ctx context.Context, eng *pricing.Engine, view pricing.Snapshot, workers int, need func(w int) bool) ([][]int32, error) {
	n := view.N()
	rows := make([][]int32, n)
	arena := make([]int32, n*n)
	var stop atomic.Bool
	par.ForChunked(workers, n, func(lo, hi int) {
		_, queue, release := eng.Scratch(n)
		defer release()
		for w := lo; w < hi; w++ {
			if stop.Load() {
				return
			}
			if ctx != nil && ctx.Err() != nil {
				stop.Store(true)
				return
			}
			if need != nil && !need(w) {
				continue
			}
			row := arena[w*n : (w+1)*n : (w+1)*n]
			view.BFSInto(w, row, queue)
			rows[w] = row
		}
	})
	if stop.Load() {
		return nil, ctx.Err()
	}
	return rows, nil
}

// scanAddMajorBatched is scanAddMajor with the shared-row filter in
// front: each candidate is first priced against the endpoint's full-graph
// row (a lower bound on its exact cost — deleting the deviator can only
// lengthen the endpoint's distances), and only candidates whose bound
// passes the admission threshold pay the exact d_{G−v}(add,·) BFS,
// computed at most once per endpoint and shared across its dropped edges.
// price must be monotone in its row argument (all the Patched*Below
// reducers are), which makes the filter sound; exactness of the returned
// candidate is untouched, so the result is bit-identical to
// scanAddMajor's for any worker count. firstOnly selects the
// first-improving engine mode (the certification sweeps); otherwise the
// minimum under order — ByEnumeration for the add-major models,
// ByDropFirst for the swap model's best-move tie-break — strictly below
// cur is returned, matching the unfiltered per-agent scan observably
// (an admitted winner is identical; no candidate below cur is identical
// to a best move that fails the strict-improvement check).
func scanAddMajorBatched(eng *pricing.Engine, view pricing.Snapshot, ps *pricing.Scan,
	workers int, rows rowLookup, skipAdd func(add int) bool, price rowPrice,
	cur int64, firstOnly bool, order scan.Order) (scan.Cand, bool) {
	v := ps.V()
	if len(ps.Drops()) == 0 {
		return scan.Cand{}, false
	}
	dropRows := ps.DropRows() // built here, before the scan shards
	spec := scan.Spec{
		Workers:   workers,
		N:         view.N(),
		Threshold: cur,
		Order:     order,
		Skip: func(add int) bool {
			return add == v || (skipAdd != nil && skipAdd(add))
		},
		Cancel: ps.CancelHook(),
	}
	pricer := func(ws bfsRow, add int, threshold func() int64, yield func(int, int64) bool) {
		shared := rows(add)
		exact := false
		for i, dv := range dropRows {
			if _, maybe := price(dv, shared, threshold()); !maybe {
				continue
			}
			if !exact {
				view.BFSSkipVertex(add, v, ws.dist, ws.queue)
				exact = true
			}
			if c, below := price(dv, ws.dist, threshold()); below {
				if !yield(i, c) {
					return
				}
			}
		}
	}
	state := scratchState(eng, view.N())
	if firstOnly {
		return scan.First(spec, state, pricer)
	}
	return scan.Best(spec, state, pricer)
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
		return ps.RowCache().Sync(workers, needRow).Row
	}
	rows, _ := batchRows(nil, eng, ps.View(), workers, needRow)
	return func(w int) []int32 { return rows[w] }
}

// batchedFindImprovement is the batched certification sweep the
// interests and budget sessions share: shared rows once (restricted to
// endpoints some deviator can use), then the sweep driver over agents,
// each agent's filtered first-improving scan configured by the model
// through vertex — which returns the agent's current cost, its endpoint
// filter, and its thresholded price reduction over the scan's
// dropped-edge rows. prune applies both exact pruning rules (twins in the
// sweep, the locality lemma per agent): budget sets it, interests cannot.
func batchedFindImprovement(eng *pricing.Engine, ps *pricing.Session, workers int,
	reuse, prune bool, needRow func(add int) bool,
	vertex func(v int, sc *pricing.Scan) (cur int64, skipAdd func(add int) bool, price rowPrice),
) (Move, int64, int64, bool) {
	view := ps.View()
	rows := sweepRows(eng, ps, workers, reuse, needRow)
	var twins adjacency
	if prune {
		twins = view
	}
	viol, _ := sweep(nil, ps.N(), twins, func(v int) *Violation {
		sc := ps.NewScan(v)
		defer sc.Close()
		cur, skipAdd, price := vertex(v, sc)
		if prune && withinTwo(sc.CurrentRow()) {
			return nil
		}
		cand, ok := scanAddMajorBatched(eng, view, sc, workers, rows, skipAdd, price, cur,
			true, scan.ByEnumeration)
		if !ok {
			return nil
		}
		return candViolation(sc, cur, cand)
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
	po := pobj(obj)
	view := s.ps.View()
	return batchedFindImprovement(s.eng, s.ps, s.workers, reuse, false, nil,
		func(v int, sc *pricing.Scan) (int64, func(int) bool, rowPrice) {
			set := s.model.set(v)
			return pricing.UsageSubset(sc.CurrentRow(), set, po),
				func(add int) bool { return view.HasEdge(v, add) },
				func(dv, dw []int32, threshold int64) (int64, bool) {
					return pricing.PatchedSubsetBelow(dv, dw, set, po, threshold)
				}
		})
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
	po := pobj(obj)
	view := s.ps.View()
	return batchedFindImprovement(s.eng, s.ps, s.workers, reuse, true,
		func(add int) bool { return view.Degree(add) < s.k },
		func(v int, sc *pricing.Scan) (int64, func(int) bool, rowPrice) {
			return sc.CurrentUsage(po),
				func(add int) bool {
					return view.HasEdge(v, add) || view.Degree(add) >= s.k
				},
				patchedBelow(po)
		})
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
	rows := sweepRows(s.eng, s.ps, s.workers, reuse, nil)
	viol, _ := sweep(nil, s.ps.N(), s.ps.View(), func(v int) *Violation {
		return improvement(s.scanMovesBatched(v, obj, rows, true))
	})
	return viol.asMove()
}

// scanMovesBatched is scanMoves priced through the shared rows: the same
// three stages in the same enumeration order with the same
// running-threshold handoff and the same firstOnly semantics, so the
// returned move is bit-identical for any worker count.
func (s *greedySession) scanMovesBatched(v int, obj Objective, rows rowLookup, firstOnly bool) (best Move, oldCost, newCost int64, ok bool) {
	po := pobj(obj)
	view := s.ps.View()
	n := view.N()
	psc := s.ps.NewScan(v)
	defer psc.Close()
	deg := int64(view.Degree(v))
	cur := s.edgeCost*deg + psc.CurrentUsage(po)
	bestCost := cur
	state := scratchState(s.eng, n)
	skipKnown := func(add int) bool { return add == v || view.HasEdge(v, add) }
	runStage := func(pricer scan.Pricer[bfsRow], toMove func(c scan.Cand) Move) bool {
		spec := scan.Spec{
			Workers:   s.workers,
			N:         n,
			Threshold: bestCost,
			Order:     scan.ByEnumeration,
			Skip:      skipKnown,
			Cancel:    psc.CancelHook(),
		}
		var c scan.Cand
		var found bool
		if firstOnly {
			c, found = scan.First(spec, state, pricer)
		} else {
			c, found = scan.Best(spec, state, pricer)
		}
		if found {
			best, bestCost, ok = toMove(c), c.Cost, true
		}
		return found && firstOnly
	}

	// Adds: the shared row IS the exact post-add endpoint row — adding vw
	// excludes no vertex, so d_{G+vw}(v,·) = min(d_G(v,·), 1+d_G(w,·))
	// prices exactly from the cache with no BFS and no verification pass.
	addOffset := s.edgeCost * (deg + 1)
	addPricer := func(_ bfsRow, add int, threshold func() int64, yield func(int, int64) bool) {
		if c, below := pricing.PatchedBelow(psc.CurrentRow(), rows(add), po, threshold()-addOffset); below {
			yield(0, addOffset+c)
		}
	}
	if runStage(addPricer, func(c scan.Cand) Move { return Move{Kind: KindAdd, V: v, Add: c.Add} }) {
		return best, cur, bestCost, true
	}

	// Deletions: the scan's dropped-edge rows price them for free, exactly
	// as in the per-agent scan.
	for i, w := range psc.Drops() {
		if c := s.edgeCost*(deg-1) + psc.DeletionUsage(i, po); c < bestCost {
			best, bestCost, ok = Move{Kind: KindDelete, V: v, Drop: int(w)}, c, true
			if firstOnly {
				return best, cur, bestCost, true
			}
		}
	}

	// Swaps: the swap model's filter-then-verify — the shared row lower-
	// bounds the deviator-excluded row, flagged candidates pay one exact
	// BFS shared across dropped edges.
	swapOffset := s.edgeCost * deg
	drops, dropRows := psc.Drops(), psc.DropRows()
	swapPricer := func(ws bfsRow, add int, threshold func() int64, yield func(int, int64) bool) {
		shared := rows(add)
		exact := false
		for i := range drops {
			if _, maybe := pricing.PatchedBelow(dropRows[i], shared, po, threshold()-swapOffset); !maybe {
				continue
			}
			if !exact {
				view.BFSSkipVertex(add, v, ws.dist, ws.queue)
				exact = true
			}
			if c, below := pricing.PatchedBelow(dropRows[i], ws.dist, po, threshold()-swapOffset); below {
				if !yield(i, swapOffset+c) {
					return
				}
			}
		}
	}
	runStage(swapPricer, func(c scan.Cand) Move {
		return Move{Kind: KindSwap, V: v, Drop: int(drops[c.DropIdx]), Add: c.Add}
	})
	return best, cur, bestCost, ok
}

// CheckSwapBatched is CheckSwap computed via the batched cross-agent pass:
// same verdict, same deterministic witness (deletion-criticality checks
// still run per agent from the scan's dropped-edge rows; only the
// candidate-endpoint BFS reuse changes). One frozen snapshot, n shared
// rows in one arena, exact verification for flagged candidates only.
func CheckSwapBatched(g *graph.Graph, obj Objective, workers int, deletionCritical bool) (bool, *Violation, error) {
	return CheckSwapBatchedCtx(nil, g, obj, workers, deletionCritical)
}

// CheckSwapBatchedCtx is CheckSwapBatched with cooperative cancellation:
// ctx (nil tolerated) is polled between the shared-row BFS passes during
// construction and between per-agent scans afterwards, and its error is
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
	workers = normWorkers(workers)
	eng := pricing.Shared(workers)
	f := g.Freeze()
	rows, err := batchRows(ctx, eng, f, workers, nil)
	if err != nil {
		return false, nil, err
	}
	viol, err := swapScan(ctx, eng, f, func(v int) *pricing.Scan { return eng.NewScan(f, v) },
		obj, deletionCritical, func(w int) []int32 { return rows[w] })
	if err != nil {
		return false, nil, err
	}
	return viol == nil, viol, nil
}
