package pricing

import (
	"repro/internal/graph"
)

// Session is a long-lived incremental pricing context: it owns a mutable
// CSR snapshot (graph.Dyn) of the game graph and patches it in O(deg) per
// applied move instead of re-freezing in O(n+m). Swap dynamics and
// best-response iterations hold one Session across an entire trajectory,
// issuing a fresh Scan per deviator over the live snapshot; the engine's
// pooled BFS scratch is shared with one-shot scans, and outstanding Scans
// are invalidated cheaply by a generation counter — a Scan issued before a
// mutation panics on its next use instead of pricing stale rows.
//
// The Session's lifecycle is freeze → apply → invalidate → certify: thaw
// the starting graph once, patch adjacency per applied (or undone) move,
// let the generation bump invalidate outstanding scans, and run
// certification sweeps against the same live snapshot. A Session is not
// safe for concurrent mutation; concurrent reads (sharded scans) between
// mutations are safe.
type Session struct {
	e      *Engine
	d      *graph.Dyn
	gen    uint64
	undo   []sessionOp
	rows   *RowCache   // shared-row cache, created lazily by RowCache()
	cancel func() bool // cooperative scan-cancel hook, see SetCancel
}

// sessionOp records one applied mutation for Undo. added/removed record
// what actually changed, so degenerate moves (swap onto an existing edge =
// pure deletion, swap with add == drop = no-op) roll back exactly.
type sessionOp struct {
	v, drop, add int32
	removed      bool // the v–drop edge was removed
	added        bool // the v–add edge was inserted
}

// NewSession starts an incremental pricing session on a thawed snapshot
// of g. Later mutations of g are not observed; route every move through
// ApplySwap/ApplyAdd/ApplyRemove (mirroring them onto g if the caller
// keeps g authoritative).
func (e *Engine) NewSession(g *graph.Graph) *Session {
	return &Session{e: e, d: g.Thaw()}
}

// Engine returns the engine whose workers and scratch pool back the
// session's scans.
func (s *Session) Engine() *Engine { return s.e }

// View returns the live snapshot. It remains valid across mutations (its
// contents change in place); readers that must not observe a mutation
// should hold the session's generation via Gen.
func (s *Session) View() *graph.Dyn { return s.d }

// N returns the vertex count of the session's snapshot.
func (s *Session) N() int { return s.d.N() }

// Gen returns the mutation generation, incremented by every applied or
// undone move. Scans remember the generation they were issued at.
func (s *Session) Gen() uint64 { return s.gen }

// Depth returns the number of applied moves available to Undo.
func (s *Session) Depth() int { return len(s.undo) }

// ApplySwap applies the basic game's move for agent v: the edge v–drop is
// removed and the edge v–add inserted, each endpoint's adjacency patched
// in O(deg). A swap onto an existing edge realizes a pure deletion and
// add == drop realizes a no-op, matching core.ApplyMove. It panics when
// the dropped edge is absent, mirroring core.ApplyMove's contract.
//
// The insertion is patched before the removal (the two operations commute
// — they touch distinct edges): near equilibrium the inserted edge
// usually leaves the dropped edge with an equal-length alternative, so
// the row cache's exact remove test keeps rows that a remove-first
// ordering would have had to flag — on a path, a local re-point
// invalidates O(1) rows instead of all n.
func (s *Session) ApplySwap(v, drop, add int) {
	if !s.d.HasEdge(v, drop) {
		panic("pricing: Session.ApplySwap drop edge missing")
	}
	if add == drop {
		// Remove-then-reinsert of the same edge: the graph is unchanged,
		// so the cache sees no notes and Undo has nothing to revert.
		s.push(sessionOp{v: int32(v), drop: int32(drop), add: int32(add)})
		return
	}
	added := s.d.AddEdge(v, add)
	if added {
		s.noteAdded(v, add)
	}
	s.d.RemoveEdge(v, drop)
	s.noteRemoved(v, drop)
	s.push(sessionOp{v: int32(v), drop: int32(drop), add: int32(add), removed: true, added: added})
}

// ApplyAdd inserts edge uv (the α-game's buy), reporting whether the edge
// was actually added.
func (s *Session) ApplyAdd(u, v int) bool {
	added := s.d.AddEdge(u, v)
	if added {
		s.noteAdded(u, v)
	}
	s.push(sessionOp{v: int32(u), add: int32(v), added: added})
	return added
}

// ApplyRemove deletes edge uv (the α-game's delete), reporting whether the
// edge was present.
func (s *Session) ApplyRemove(u, v int) bool {
	removed := s.d.RemoveEdge(u, v)
	if removed {
		s.noteRemoved(u, v)
	}
	s.push(sessionOp{v: int32(u), drop: int32(v), removed: removed})
	return removed
}

// noteRemoved and noteAdded forward an actual edge change to the attached
// RowCache's O(1)-per-row invalidation tests; sessions without a cache pay
// one nil check per mutation. They must be called after the corresponding
// graph.Dyn patch and before any further edge change, so the cache's valid
// rows still describe the pre-change graph when tested.
func (s *Session) noteRemoved(a, b int) {
	if s.rows != nil {
		s.rows.noteRemove(a, b)
	}
}

func (s *Session) noteAdded(a, b int) {
	if s.rows != nil {
		s.rows.noteAdd(a, b)
	}
}

func (s *Session) push(op sessionOp) {
	s.undo = append(s.undo, op)
	s.gen++
}

// Undo reverts the most recent applied move, returning false when the
// undo stack is empty. Like every mutation it bumps the generation, so
// scans issued before the Undo are invalidated too. It mirrors
// ApplySwap's insert-before-remove ordering (the operations commute
// whenever both ran), for the same row-cache benefit.
func (s *Session) Undo() bool {
	if len(s.undo) == 0 {
		return false
	}
	op := s.undo[len(s.undo)-1]
	s.undo = s.undo[:len(s.undo)-1]
	if op.removed {
		s.d.AddEdge(int(op.v), int(op.drop))
		s.noteAdded(int(op.v), int(op.drop))
	}
	if op.added {
		s.d.RemoveEdge(int(op.v), int(op.add))
		s.noteRemoved(int(op.v), int(op.add))
	}
	s.gen++
	return true
}

// Close releases the session's row-cache arenas into the size-keyed pool
// for the next same-n session and invalidates every outstanding scan and
// row view through a generation bump. The session itself stays usable — a
// later RowCache call simply provisions fresh arenas — so Close is
// idempotent and safe to defer from any instance owner (the dynamics
// driver, the service layer).
func (s *Session) Close() {
	if s.rows == nil {
		return
	}
	s.rows.release()
	s.rows = nil
	s.gen++
}

// RowCacheStats reports the attached row cache's lifetime counters — BFS
// row rebuilds and mutation-forced invalidations — without creating a
// cache on a session that never attached one.
func (s *Session) RowCacheStats() (recomputed, invalidated uint64, attached bool) {
	if s.rows == nil {
		return 0, 0, false
	}
	return s.rows.recomputed, s.rows.invalidated, true
}

// NewScan prepares pricing state for deviator v over the live snapshot,
// with every incident edge as a dropped-edge candidate. The Scan is valid
// until the session's next mutation.
func (s *Session) NewScan(v int) *Scan {
	sc := s.e.NewScan(s.d, v)
	sc.sess, sc.gen, sc.cancel = s, s.gen, s.cancel
	return sc
}

// SetCancel installs a cooperative cancel hook on every Scan the session
// issues from now on: the unified scan engine polls it between candidate
// endpoints (one poll per endpoint BFS, never inside one) and stops
// enumerating once it returns true. A cancelled scan's result is
// unspecified; the installer must check its own cancellation source after
// the scan and discard the result on expiry. nil uninstalls. The hook must
// be cheap and safe for concurrent calls (the serve layer installs an
// atomic-flag-guarded ctx.Err poll, game.ContextCancel).
func (s *Session) SetCancel(cancel func() bool) { s.cancel = cancel }

// CancelHook returns the installed cancel hook (nil when none), so
// higher-layer scans that assemble their own scan.Spec — the game layer's
// add-major and staged scans — can honor the same hook.
func (s *Session) CancelHook() func() bool { return s.cancel }

// NewScanDrops is NewScan restricted to the given dropped-edge endpoints
// (ascending neighbors of v).
func (s *Session) NewScanDrops(v int, drops []int32) *Scan {
	sc := s.e.NewScanDrops(s.d, v, drops)
	sc.sess, sc.gen, sc.cancel = s, s.gen, s.cancel
	return sc
}
