package game

import (
	"repro/internal/pricing"
)

// This file routes the per-agent sweeping policies through the session's
// persistent row cache. The batched certification sweep (batched.go)
// already prices candidate endpoints from the shared d_G rows; with the
// cache's exact remove-invalidation test (shortest-path multiplicity,
// pricing.RowCache) an applied move near equilibrium invalidates O(1)
// rows, so the same shared-row filter now pays off inside the dynamics
// hot loop too: best-response and first-improvement scans reuse the rows
// across agents and across moves, and the random policy's probes reject
// against a cached endpoint row before paying any BFS. Every row-cached
// path returns observably identical results to its per-agent twin — same
// move, same costs, same ok — which the differential suites pin.

// RowCachedScanner is the optional Instance capability for per-agent
// scans priced through the session row cache: BestMoveRowCached and
// FirstImprovingRowCached are BestMove and FirstImproving with the
// shared-row filter (or, for the greedy add stage, exact shared-row
// pricing) in front. Implementations must return observably identical
// results to the uncached methods; the difference is purely performance,
// bought with the cache's O(n²) resident memory.
type RowCachedScanner interface {
	BestMoveRowCached(v int, obj Objective) (m Move, oldCost, newCost int64, ok bool)
	FirstImprovingRowCached(v int, obj Objective) (m Move, oldCost, newCost int64, ok bool)
}

// MoveBelowPricer is the optional Instance capability for thresholded
// probe pricing: PriceMoveBelow reports whether m prices strictly below
// threshold, returning the exact PriceMove cost whenever it does (ok
// true). When ok is false the returned cost is only a lower bound —
// implementations reject via the cached shared rows without paying the
// probe's endpoint BFS.
type MoveBelowPricer interface {
	PriceMoveBelow(m Move, obj Objective, threshold int64) (int64, bool)
}

// CloseInstance releases an instance's pooled resources (today: the
// pricing session's row-cache arenas) when it implements Close, and is a
// no-op otherwise. Drivers that create instances per run — the dynamics
// driver, the service layer — defer it so a recycled slot does not pin
// 5n² bytes of a graph it has finished with.
func CloseInstance(inst Instance) {
	if c, ok := inst.(interface{ Close() }); ok {
		c.Close()
	}
}

// RowCacheStats reports a session row cache's lifetime counters.
type RowCacheStats struct {
	Recomputed  uint64 // BFS row rebuilds paid at Syncs
	Invalidated uint64 // rows flagged by applied moves' invalidation tests
}

// InstanceRowCacheStats reads the row-cache counters of a session-backed
// instance; ok is false for instances without an attached cache (naive
// oracles, trajectories that never requested batching).
func InstanceRowCacheStats(inst Instance) (RowCacheStats, bool) {
	type statter interface {
		RowCacheStats() (RowCacheStats, bool)
	}
	if s, ok := inst.(statter); ok {
		return s.RowCacheStats()
	}
	return RowCacheStats{}, false
}

// sessionRowCacheStats adapts pricing.Session's counter triple to the
// game-level stats shape shared by the four session models.
func sessionRowCacheStats(ps *pricing.Session) (RowCacheStats, bool) {
	recomputed, invalidated, ok := ps.RowCacheStats()
	return RowCacheStats{Recomputed: recomputed, Invalidated: invalidated}, ok
}

// ---------------------------------------------------------------------------
// Swap model.

// BestMoveRowCached is BestMove priced through the session row cache.
func (s *SwapSession) BestMoveRowCached(v int, obj Objective) (Move, int64, int64, bool) {
	return s.scanAgent(v, obj, false, sweepRows(s.eng, s.ps, s.workers, true, nil))
}

// FirstImprovingRowCached is FirstImproving priced through the session
// row cache.
func (s *SwapSession) FirstImprovingRowCached(v int, obj Objective) (Move, int64, int64, bool) {
	return s.scanAgent(v, obj, true, sweepRows(s.eng, s.ps, s.workers, true, nil))
}

// PriceMoveBelow is the random policy's row-cached probe: the memoized
// deviator row patched with the endpoint's cached shared row is a sound
// lower bound on the exact post-move cost (d_G(add,·) ≤ d_{G−v}(add,·)
// pointwise and the patched reduction is monotone in the row), so a probe
// whose bound already prices at or above threshold is rejected with no
// BFS at all. Only bound-passing probes — near equilibrium, almost none —
// pay PriceMove's endpoint BFS for the exact cost.
func (s *SwapSession) PriceMoveBelow(m Move, obj Objective, threshold int64) (int64, bool) {
	po := pobj(obj)
	dv := s.probeRow(probeKey{v: int32(m.V), drop: int32(m.Drop)})
	shared := s.ps.RowCache().SyncRow(m.Add)
	if bound, maybe := pricing.PatchedBelow(dv, shared, po, threshold); !maybe {
		return bound, false
	}
	dw, qw, relW := s.eng.Scratch(s.ps.N())
	defer relW()
	s.ps.View().BFSSkipVertex(m.Add, m.V, dw, qw)
	c := pricing.Patched(dv, dw, po)
	return c, c < threshold
}

// Close releases the session's row-cache arenas; see pricing.Session.Close.
func (s *SwapSession) Close() { s.ps.Close() }

// RowCacheStats reports the session row cache's counters.
func (s *SwapSession) RowCacheStats() (RowCacheStats, bool) { return sessionRowCacheStats(s.ps) }

// ---------------------------------------------------------------------------
// Greedy model.

// BestMoveRowCached is BestMove priced through the session row cache: the
// add stage prices exactly from the shared rows (no BFS at all), the swap
// stage filters through them.
func (s *greedySession) BestMoveRowCached(v int, obj Objective) (Move, int64, int64, bool) {
	return s.scanMoves(v, obj, false, sweepRows(s.eng, s.ps, s.workers, true, nil))
}

// FirstImprovingRowCached is FirstImproving priced through the session
// row cache.
func (s *greedySession) FirstImprovingRowCached(v int, obj Objective) (Move, int64, int64, bool) {
	return s.scanMoves(v, obj, true, sweepRows(s.eng, s.ps, s.workers, true, nil))
}

// Close releases the session's row-cache arenas; see pricing.Session.Close.
func (s *greedySession) Close() { s.ps.Close() }

// RowCacheStats reports the session row cache's counters.
func (s *greedySession) RowCacheStats() (RowCacheStats, bool) { return sessionRowCacheStats(s.ps) }

// ---------------------------------------------------------------------------
// Interests model.

// BestMoveRowCached is BestMove priced through the session row cache.
func (s *interestsSession) BestMoveRowCached(v int, obj Objective) (Move, int64, int64, bool) {
	return s.scanMoves(v, obj, false, sweepRows(s.eng, s.ps, s.workers, true, nil))
}

// FirstImprovingRowCached is FirstImproving priced through the session
// row cache.
func (s *interestsSession) FirstImprovingRowCached(v int, obj Objective) (Move, int64, int64, bool) {
	return s.scanMoves(v, obj, true, sweepRows(s.eng, s.ps, s.workers, true, nil))
}

// Close releases the session's row-cache arenas; see pricing.Session.Close.
func (s *interestsSession) Close() { s.ps.Close() }

// RowCacheStats reports the session row cache's counters.
func (s *interestsSession) RowCacheStats() (RowCacheStats, bool) { return sessionRowCacheStats(s.ps) }

// ---------------------------------------------------------------------------
// Budget model.

// BestMoveRowCached is BestMove priced through the session row cache.
func (s *budgetSession) BestMoveRowCached(v int, obj Objective) (Move, int64, int64, bool) {
	return s.scanMoves(v, obj, false, s.rowCache())
}

// FirstImprovingRowCached is FirstImproving priced through the session
// row cache.
func (s *budgetSession) FirstImprovingRowCached(v int, obj Objective) (Move, int64, int64, bool) {
	return s.scanMoves(v, obj, true, s.rowCache())
}

// rowCache syncs only the rows of endpoints with budget room: the scan
// skips over-budget endpoints before their row is ever read, so rows no
// agent can target are not computed.
func (s *budgetSession) rowCache() rowLookup {
	view := s.ps.View()
	return sweepRows(s.eng, s.ps, s.workers, true, func(add int) bool { return view.Degree(add) < s.k })
}

// Close releases the session's row-cache arenas; see pricing.Session.Close.
func (s *budgetSession) Close() { s.ps.Close() }

// RowCacheStats reports the session row cache's counters.
func (s *budgetSession) RowCacheStats() (RowCacheStats, bool) { return sessionRowCacheStats(s.ps) }
