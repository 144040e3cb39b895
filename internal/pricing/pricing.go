// Package pricing implements the sharded swap-pricing engine for the basic
// network creation game.
//
// The core computational object of the game is the single-edge swap: agent v
// replaces an incident edge vw by an edge vw'. Equilibrium checking and
// best-response dynamics price Θ(n·deg(v)) candidate swaps per agent, and
// the naive path pays a fresh shortest-path computation for every candidate.
// The engine prices every candidate from two patched BFS rows instead:
//
//	d_{G−vw+vw'}(v, x) = min( d_{G−vw}(v, x), 1 + d_{G−v}(w', x) )
//
// The identity is exact: a shortest v–x path in the post-swap graph either
// avoids the new edge vw' (so it lives in G−vw, the first term), or uses it;
// a simple path that uses vw' starts with it, and its remainder is a w'–x
// path that avoids v entirely — and a w'–x path that avoids v automatically
// avoids the deleted edge vw, so it lives in G−v (the second term). A w'–x
// detour through v never helps, because 1 + d(w',v) + d(v,x) > d_{G−vw}(v,x).
//
// A Scan therefore prepares deg(v)+1 rows once per deviator (the deviator's
// row in G up front, its row in each G−vw on first use), and then prices
// all candidates for one endpoint w' from a single BFS row of G−v, shared
// across every dropped edge. Per-worker scratch (distance rows and queues)
// lives in pooled buffers, and the best-move and first-improvement
// searches run on the unified scan engine (internal/scan) with the
// ByDropFirst tie-break — (cost, drop, add) — so the outcome is
// deterministic for any worker count.
//
// The package depends only on internal/graph, internal/par, and
// internal/scan so that both the basic-game checkers (internal/core) and
// the α-game dynamics (internal/nash) can share one engine.
package pricing

import (
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/scan"
)

// Objective selects which usage cost is priced.
type Objective int

const (
	// Sum prices Σ_x d(v,x) (the sum version of the game).
	Sum Objective = iota
	// Max prices max_x d(v,x) (the local-diameter version).
	Max
)

// InfCost is the usage cost of a disconnected position. It equals
// core.InfCost; the engine duplicates the constant rather than importing
// internal/core, which sits above it in the dependency order.
const InfCost = int64(1) << 60

// Snapshot is the read surface the engine prices against: vertex count,
// sorted int32 adjacency, edge membership, and the three BFS kernels.
// Both graph.Frozen (the immutable CSR used by one-shot scans) and
// graph.Dyn (the mutable CSR owned by a Session) implement it. Snapshots
// must be safe for concurrent reads while a scan is sharded across
// workers.
type Snapshot interface {
	N() int
	Degree(v int) int
	Neighbors(v int) []int32
	HasEdge(u, v int) bool
	BFSInto(src int, dist, queue []int32) int
	BFSSkipVertex(src, skip int, dist, queue []int32) int
	BFSSkipEdge(src, a, b int, dist, queue []int32) int
}

var (
	_ Snapshot = (*graph.Frozen)(nil)
	_ Snapshot = (*graph.Dyn)(nil)
)

// Engine prices swaps over frozen CSR snapshots with pooled per-worker
// scratch. The zero worker count selects par.DefaultWorkers. An Engine is
// safe for concurrent use; Scans are not.
type Engine struct {
	workers int
	pool    sync.Pool // *scratch
}

type scratch struct {
	dist  []int32
	queue []int32
}

// New returns an engine. workers bounds the sharded best-move search
// (<= 0 means par.DefaultWorkers).
func New(workers int) *Engine {
	if workers <= 0 {
		workers = par.DefaultWorkers
	}
	return &Engine{workers: workers}
}

// Workers returns the engine's effective worker count.
func (e *Engine) Workers() int { return e.workers }

var (
	sharedMu  sync.Mutex
	sharedByW = map[int]*Engine{}
)

// Shared returns the process-wide engine for a worker count (<= 0 means
// par.DefaultWorkers), so scratch pools survive across calls and every
// caller at the same parallelism — one-shot scans, sessions, checkers —
// shares one pool instead of growing its own.
func Shared(workers int) *Engine {
	if workers <= 0 {
		workers = par.DefaultWorkers
	}
	sharedMu.Lock()
	defer sharedMu.Unlock()
	e, ok := sharedByW[workers]
	if !ok {
		e = New(workers)
		sharedByW[workers] = e
	}
	return e
}

func (e *Engine) getScratch(n int) *scratch {
	if s, ok := e.pool.Get().(*scratch); ok && len(s.dist) == n {
		return s
	}
	return &scratch{dist: make([]int32, n), queue: make([]int32, 0, n)}
}

func (e *Engine) putScratch(s *scratch) { e.pool.Put(s) }

// Scratch borrows a pooled (dist, queue) buffer pair sized for an n-vertex
// graph; release returns it to the pool. Callers running their own sharded
// BFS loops (e.g. the α-game's buy scan) use this to share the engine's
// per-worker scratch instead of allocating per chunk.
func (e *Engine) Scratch(n int) (dist, queue []int32, release func()) {
	s := e.getScratch(n)
	return s.dist, s.queue, func() { e.putScratch(s) }
}

// Scan holds the per-deviator pricing state: the deviator's BFS row in G and
// in each edge-deleted graph G−vw for the scanned dropped edges. Building a
// Scan costs one BFS pass (the deviator's own row); the len(drops)
// dropped-edge rows are built on first use, so a caller that settles the
// deviator from its own row alone (the game layer's locality lemma, a
// greedy add found first) never pays them. Pricing a candidate endpoint
// then costs one BFS pass shared across all dropped edges. A Scan prices
// against the snapshot it was built from; re-freeze (or re-issue
// Session.NewScan) and re-scan after mutating the underlying graph — scans
// issued by a Session detect mutation and panic rather than price stale
// rows. Close detaches the Scan from its snapshot (its row buffers are
// plain allocations, reclaimed by the GC); using a Scan after Close is
// invalid.
type Scan struct {
	e        *Engine
	f        Snapshot
	v        int
	drops    []int32     // dropped-edge endpoints, ascending
	cur      []int32     // d_G(v,·)
	dropRows [][]int32   // dropRows[i] = d_{G−v·drops[i]}(v,·), once built
	built    atomic.Bool // dropRows is complete
	buildMu  sync.Mutex  // serializes the first build
	sess     *Session    // issuing session, nil for one-shot scans
	gen      uint64      // session generation at build time
	cancel   func() bool // cooperative cancel hook, see Session.SetCancel
}

// NewScan prepares pricing state for deviator v with every incident edge as
// a dropped-edge candidate (the basic game's move set).
func (e *Engine) NewScan(f Snapshot, v int) *Scan {
	return e.NewScanDrops(f, v, f.Neighbors(v))
}

// scanParThreshold is the dropped-edge count past which scan construction
// shards its per-drop BFS rows across the engine's workers: below it the
// spawn overhead outweighs the row work, above it (high-degree deviators —
// hubs, star centers) the construction would otherwise be the serial
// bottleneck of an otherwise sharded per-agent scan.
const scanParThreshold = 16

// NewScanDrops prepares pricing state for deviator v restricted to the given
// dropped-edge endpoints (e.g. the owned edges in the α-game). drops must be
// neighbors of v, in ascending order; the slice is not retained. Only the
// deviator's own row is computed here; the dropped-edge rows wait for
// DropRows (see there).
func (e *Engine) NewScanDrops(f Snapshot, v int, drops []int32) *Scan {
	n := f.N()
	s := &Scan{
		e:     e,
		f:     f,
		v:     v,
		drops: append([]int32(nil), drops...),
		cur:   make([]int32, n),
	}
	sc := e.getScratch(n)
	f.BFSInto(v, s.cur, sc.queue)
	e.putScratch(sc)
	return s
}

// DropRows returns every dropped-edge row, dropRows[i] =
// d_{G−v·drops[i]}(v,·), building them on first use. The rows are
// independent BFS passes, sharded across the engine's workers for
// high-degree deviators, so call DropRows (or any pricing method) before
// handing the Scan to sharded workers: later calls are one atomic load
// and safe from any goroutine. The slice and its rows are owned by the
// Scan; do not modify.
func (s *Scan) DropRows() [][]int32 {
	if !s.built.Load() {
		s.buildDropRows()
	}
	return s.dropRows
}

func (s *Scan) buildDropRows() {
	s.buildMu.Lock()
	defer s.buildMu.Unlock()
	if s.built.Load() {
		return
	}
	s.checkFresh()
	e, f, v, n := s.e, s.f, s.v, s.f.N()
	rows := make([][]int32, len(s.drops))
	fill := func(lo, hi int) {
		sc := e.getScratch(n)
		defer e.putScratch(sc)
		for i := lo; i < hi; i++ {
			row := make([]int32, n)
			f.BFSSkipEdge(v, v, int(s.drops[i]), row, sc.queue)
			rows[i] = row
		}
	}
	if e.workers > 1 && len(s.drops) >= scanParThreshold {
		par.ForChunked(e.workers, len(s.drops), fill)
	} else {
		fill(0, len(s.drops))
	}
	s.dropRows = rows
	s.built.Store(true)
}

// Close detaches the Scan from its snapshot, invalidating further use.
func (s *Scan) Close() { s.f = nil }

// checkFresh panics when a session-issued Scan outlived a mutation of its
// session's live snapshot: its precomputed rows no longer describe the
// graph, so pricing from them would be silently wrong.
func (s *Scan) checkFresh() {
	if s.sess != nil && s.sess.gen != s.gen {
		panic("pricing: Scan used after Session mutation; re-issue the scan")
	}
}

// V returns the deviator.
func (s *Scan) V() int { return s.v }

// Drops returns the scanned dropped-edge endpoints in ascending order. The
// slice is owned by the Scan; do not modify.
func (s *Scan) Drops() []int32 { return s.drops }

// CurrentRow returns d_G(v,·) (owned by the Scan; do not modify).
func (s *Scan) CurrentRow() []int32 { return s.cur }

// CurrentUsage returns the deviator's usage cost in G.
func (s *Scan) CurrentUsage(obj Objective) int64 { return Usage(s.cur, obj) }

// DeletionUsage returns the deviator's usage cost in G−v·drops[i], i.e. the
// price of a pure deletion of the i-th dropped edge.
func (s *Scan) DeletionUsage(i int, obj Objective) int64 {
	return Usage(s.DropRows()[i], obj)
}

// ForEach prices every candidate swap (drop = drops[i], add) sequentially
// and invokes fn with the deviator's post-move usage cost. Candidates are
// enumerated add-major: add ascending over all vertices except v, and for
// each add, dropped edges in ascending order. skipAdjacent skips every add
// that is currently a neighbor of v — the α-game's rule, where the target
// edge must not exist; without it, an adjacent add prices the pure deletion
// of the dropped edge and add == drop prices the current cost (a no-op),
// the basic game's semantics. fn returning false stops the scan.
func (s *Scan) ForEach(obj Objective, skipAdjacent bool, fn func(dropIdx, add int, cost int64) bool) {
	s.checkFresh()
	if len(s.drops) == 0 {
		return
	}
	rows := s.DropRows()
	n := s.f.N()
	sc := s.e.getScratch(n)
	defer s.e.putScratch(sc)
	for add := 0; add < n; add++ {
		if add == s.v || (skipAdjacent && s.f.HasEdge(s.v, add)) {
			continue
		}
		s.f.BFSSkipVertex(add, s.v, sc.dist, sc.queue)
		for i := range s.drops {
			if !fn(i, add, Patched(rows[i], sc.dist, obj)) {
				return
			}
		}
	}
}

// Best is a priced swap candidate.
type Best struct {
	Drop int   // endpoint losing its edge to the deviator
	Add  int   // new endpoint
	Cost int64 // deviator's usage cost after the swap
}

// spec assembles the scan-engine description of this Scan's candidate
// universe: every vertex but the deviator (and, when skipAdjacent, its
// current neighbors), the engine's workers, and the given admission bound
// and tie-break order.
func (s *Scan) spec(ord scan.Order, threshold int64, skipAdjacent bool) scan.Spec {
	return scan.Spec{
		Workers:   s.e.workers,
		N:         s.f.N(),
		Threshold: threshold,
		Order:     ord,
		Skip: func(add int) bool {
			return add == s.v || (skipAdjacent && s.f.HasEdge(s.v, add))
		},
		Cancel: s.cancel,
	}
}

// SetCancel installs a cooperative cancel hook on this scan (see
// Session.SetCancel); scans issued by a session inherit the session's hook.
func (s *Scan) SetCancel(cancel func() bool) { s.cancel = cancel }

// CancelHook returns the scan's cancel hook (nil when none).
func (s *Scan) CancelHook() func() bool { return s.cancel }

// state lends the engine's pooled BFS scratch to the scan engine as its
// per-worker state.
func (s *Scan) state() (*scratch, func()) {
	sc := s.e.getScratch(s.f.N())
	return sc, func() { s.e.putScratch(sc) }
}

// pricer builds the endpoint's G−v row once and yields every dropped edge
// pricing strictly below the admission threshold; the thresholded reduction
// aborts a Θ(n) sum as soon as it proves the candidate cannot qualify. The
// dropped-edge rows are built here, before the scan engine shards.
func (s *Scan) pricer(obj Objective) scan.Pricer[*scratch] {
	rows := s.DropRows()
	return func(sc *scratch, add int, threshold func() int64, yield func(int, int64) bool) {
		s.f.BFSSkipVertex(add, s.v, sc.dist, sc.queue)
		for i := range s.drops {
			if cost, below := PatchedBelow(rows[i], sc.dist, obj, threshold()); below {
				if !yield(i, cost) {
					return
				}
			}
		}
	}
}

// BestMove returns the minimum-cost candidate swap, with ties broken toward
// the lexicographically smallest (Drop, Add) — the scan engine's
// ByDropFirst order over the ascending drop list. Candidate endpoints are
// sharded across the engine's workers; the merge order is deterministic for
// any worker count. ok is false when v has no candidate swaps.
func (s *Scan) BestMove(obj Objective, skipAdjacent bool) (best Best, ok bool) {
	s.checkFresh()
	if len(s.drops) == 0 {
		return Best{}, false
	}
	c, found := scan.Best(s.spec(scan.ByDropFirst, scan.NoThreshold, skipAdjacent), s.state, s.pricer(obj))
	if !found {
		return Best{}, false
	}
	return Best{Drop: int(s.drops[c.DropIdx]), Add: c.Add, Cost: c.Cost}, true
}

// FirstImproving returns the first candidate in the ForEach enumeration
// order — add-major, dropped edges ascending within an endpoint — whose
// cost is strictly below threshold. Candidate endpoints are sharded across
// the engine's workers and chunks past an already-found endpoint are
// pruned (the scan engine's CAS protocol), so the result equals a
// sequential early-exit scan for any worker count. It powers the
// first-improvement dynamics policy and the random-improving certification
// sweep.
func (s *Scan) FirstImproving(obj Objective, skipAdjacent bool, threshold int64) (first Best, ok bool) {
	s.checkFresh()
	if len(s.drops) == 0 {
		return Best{}, false
	}
	c, found := scan.First(s.spec(scan.ByEnumeration, threshold, skipAdjacent), s.state, s.pricer(obj))
	if !found {
		return Best{}, false
	}
	return Best{Drop: int(s.drops[c.DropIdx]), Add: c.Add, Cost: c.Cost}, true
}

// Usage prices a BFS row under obj: the row's sum (Sum) or maximum (Max),
// or InfCost when some vertex is unreachable.
func Usage(row []int32, obj Objective) int64 {
	if obj == Max {
		var ecc int64
		for _, d := range row {
			if d == graph.Unreachable {
				return InfCost
			}
			if int64(d) > ecc {
				ecc = int64(d)
			}
		}
		return ecc
	}
	var sum int64
	for _, d := range row {
		if d == graph.Unreachable {
			return InfCost
		}
		sum += int64(d)
	}
	return sum
}

// Patched prices the one-edge patch of two BFS rows under obj: the sum or
// maximum over x of min(dv[x], 1+dw[x]), with graph.Unreachable entries
// treated as infinite and InfCost returned when some x is unreachable via
// both rows. dv is the deviator's row and dw the new endpoint's row, both
// measured in the graph without the patching edge.
func Patched(dv, dw []int32, obj Objective) int64 {
	if obj == Max {
		return patchedEcc(dv, dw)
	}
	return patchedSum(dv, dw)
}

func patchedSum(dv, dw []int32) int64 {
	var sum int64
	for x := range dv {
		a, b := dv[x], dw[x]
		switch {
		case a == graph.Unreachable && b == graph.Unreachable:
			return InfCost
		case a == graph.Unreachable:
			sum += int64(b) + 1
		case b == graph.Unreachable:
			sum += int64(a)
		case b+1 < a:
			sum += int64(b) + 1
		default:
			sum += int64(a)
		}
	}
	return sum
}

// UsageSubset prices a BFS row restricted to the given target vertices
// (the interest-set cost of the communication-interests game): the sum or
// maximum of row[x] over x in subset, or InfCost when some target is
// unreachable. An empty subset prices to 0.
func UsageSubset(row []int32, subset []int32, obj Objective) int64 {
	var sum, ecc int64
	for _, x := range subset {
		d := row[x]
		if d == graph.Unreachable {
			return InfCost
		}
		if obj == Max {
			if int64(d) > ecc {
				ecc = int64(d)
			}
		} else {
			sum += int64(d)
		}
	}
	if obj == Max {
		return ecc
	}
	return sum
}

// patchDist is the single-target patch rule shared by every thresholded
// reducer: the post-move distance min(dv[x], 1+dw[x]) with Unreachable
// treated as infinite; reachable is false when both rows miss the target.
func patchDist(a, b int32) (d int64, reachable bool) {
	switch {
	case a == graph.Unreachable && b == graph.Unreachable:
		return 0, false
	case a == graph.Unreachable:
		return int64(b) + 1, true
	case b == graph.Unreachable:
		return int64(a), true
	default:
		d = int64(a)
		if alt := int64(b) + 1; alt < d {
			d = alt
		}
		return d, true
	}
}

// PatchedSubsetBelow prices the one-edge patch restricted to subset like
// PatchedSubset, but aborts as soon as the partial reduction proves the
// result cannot be strictly below threshold: the sum accumulates
// non-negative terms and the maximum only grows, so a partial value ≥
// threshold is final. It returns (exact cost, true) when the cost is
// strictly below threshold, and (unspecified partial, false) otherwise —
// callers comparing candidates against a current best pay only as much of
// a dense interest set as the comparison needs. The loop shell is kept
// separate from PatchedBelow's (a per-element subset/full branch measured
// ~8% on the dense 256-vertex sweep); the patch rule itself is the shared
// patchDist.
func PatchedSubsetBelow(dv, dw []int32, subset []int32, obj Objective, threshold int64) (int64, bool) {
	var sum, ecc int64
	for _, x := range subset {
		d, reachable := patchDist(dv[x], dw[x])
		if !reachable {
			return InfCost, InfCost < threshold
		}
		if obj == Max {
			if d > ecc {
				ecc = d
			}
			if ecc >= threshold {
				return ecc, false
			}
		} else {
			sum += d
			if sum >= threshold {
				return sum, false
			}
		}
	}
	if obj == Max {
		return ecc, ecc < threshold
	}
	return sum, sum < threshold
}

// PatchedBelow is PatchedSubsetBelow over the full vertex set: the
// one-edge patch of two whole BFS rows with the same threshold abort.
func PatchedBelow(dv, dw []int32, obj Objective, threshold int64) (int64, bool) {
	var sum, ecc int64
	for x := range dv {
		d, reachable := patchDist(dv[x], dw[x])
		if !reachable {
			return InfCost, InfCost < threshold
		}
		if obj == Max {
			if d > ecc {
				ecc = d
			}
			if ecc >= threshold {
				return ecc, false
			}
		} else {
			sum += d
			if sum >= threshold {
				return sum, false
			}
		}
	}
	if obj == Max {
		return ecc, ecc < threshold
	}
	return sum, sum < threshold
}

// PatchedSubset prices the one-edge patch min(dv[x], 1+dw[x]) restricted
// to the given target vertices, under the same row conventions as Patched.
// An empty subset prices to 0.
func PatchedSubset(dv, dw []int32, subset []int32, obj Objective) int64 {
	var sum, ecc int64
	for _, x := range subset {
		a, b := dv[x], dw[x]
		var d int64
		switch {
		case a == graph.Unreachable && b == graph.Unreachable:
			return InfCost
		case a == graph.Unreachable:
			d = int64(b) + 1
		case b == graph.Unreachable:
			d = int64(a)
		default:
			d = int64(a)
			if alt := int64(b) + 1; alt < d {
				d = alt
			}
		}
		if obj == Max {
			if d > ecc {
				ecc = d
			}
		} else {
			sum += d
		}
	}
	if obj == Max {
		return ecc
	}
	return sum
}

func patchedEcc(dv, dw []int32) int64 {
	var ecc int64
	for x := range dv {
		a, b := dv[x], dw[x]
		var d int64
		switch {
		case a == graph.Unreachable && b == graph.Unreachable:
			return InfCost
		case a == graph.Unreachable:
			d = int64(b) + 1
		case b == graph.Unreachable:
			d = int64(a)
		default:
			d = int64(a)
			if alt := int64(b) + 1; alt < d {
				d = alt
			}
		}
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}
