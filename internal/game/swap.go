package game

import (
	"context"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/pricing"
	"repro/internal/scan"
)

// Swap is the source paper's basic game: the only move is the single-edge
// swap Move{V, Drop, Add}, priced under SUM or MAX usage cost. Its fast
// instance is the incremental pricing session previously hard-wired into
// core.Session; trajectories, selections, and equilibrium verdicts are
// bit-identical to the pre-refactor swap-only stack (the differential
// suites in internal/dynamics and internal/core pin that move-for-move).
type Swap struct{}

// Name returns "swap".
func (Swap) Name() string { return "swap" }

// New starts an incremental swap session on g.
func (Swap) New(g *graph.Graph, workers int) Instance { return NewSwapSession(g, workers) }

// Naive returns the oracle instance: best-swap and first-improvement scans
// re-freeze the graph per call, probes price by apply-BFS-revert.
func (Swap) Naive(g *graph.Graph, workers int) Instance {
	return &swapNaive{g: g, workers: normWorkers(workers)}
}

// ---------------------------------------------------------------------------
// One-shot helpers (shared by core's package-level API and the oracle
// instance).

// BestSwap returns agent v's cost-minimizing swap over one frozen
// snapshot, its new cost, and whether it strictly improves, with ties
// broken toward the lexicographically smallest (Drop, Add). The candidate
// scan is sharded across workers; the result is identical for every count.
func BestSwap(g *graph.Graph, v int, obj Objective, workers int) (best Move, newCost int64, improves bool) {
	sc := pricing.Shared(workers).NewScan(g.Freeze(), v)
	defer sc.Close()
	cur := sc.CurrentUsage(pobj(obj))
	newCost = cur
	// Adds onto existing neighbors realize pure deletions (and add == drop
	// a no-op); a deletion never shortens a distance, so those candidates
	// price >= cur and can never be the improving winner — skipping them
	// drops their BFS without changing any reported result (the Naive*
	// oracles keep enumerating them, pinning the skip).
	if b, ok := sc.BestMove(pobj(obj), true); ok && b.Cost < cur {
		return Move{V: v, Drop: b.Drop, Add: b.Add}, b.Cost, true
	}
	return best, newCost, false
}

// PriceSwaps streams every candidate swap of agent v over one frozen
// snapshot in the engine's add-major order (add ascending; for each add,
// dropped edges ascending), invoking fn with the post-move cost. fn
// returning false stops the scan.
func PriceSwaps(g *graph.Graph, v int, obj Objective, fn func(m Move, newCost int64) bool) {
	scan := pricing.Shared(1).NewScan(g.Freeze(), v)
	defer scan.Close()
	drops := scan.Drops()
	scan.ForEach(pobj(obj), false, func(i, add int, cost int64) bool {
		return fn(Move{V: v, Drop: int(drops[i]), Add: add}, cost)
	})
}

// CheckSwap reports whether no single swap strictly improves any agent —
// and, when deletionCritical is set and obj is Max, whether additionally
// deleting any edge strictly increases the agent's local diameter (the
// full max-equilibrium condition). Returns ErrDisconnected for
// disconnected input and a deterministic witness violation on failure.
func CheckSwap(g *graph.Graph, obj Objective, workers int, deletionCritical bool) (bool, *Violation, error) {
	return CheckSwapCtx(nil, g, obj, workers, deletionCritical)
}

// swapScan certifies the swap model over a shared snapshot — a one-shot
// Frozen or a session's live CSR, whose scans newScan issues — and
// returns the first violation, nil when every agent is stable. It is the
// sweep driver (twins skipped, ctx polled between agents; nil tolerated)
// over swapScanVertex. The per-agent candidate scan is sharded across the
// engine's workers *inside* the vertex with the deterministic
// first-improvement merge, so single-agent workloads on huge n use every
// worker, the early exit at the first violating vertex wastes no
// cross-vertex work, and the witness is identical for any worker count.
// rows, when non-nil, supplies the batched pass's shared full-graph rows
// (see scanAddMajorBatched).
func swapScan(ctx context.Context, eng *pricing.Engine, view pricing.Snapshot, newScan func(v int) *pricing.Scan,
	obj Objective, deletionCritical bool, rows rowLookup) (*Violation, error) {
	return sweep(ctx, view.N(), view, func(v int) *Violation {
		sc := newScan(v)
		defer sc.Close()
		return swapScanVertex(eng, view, sc, obj, deletionCritical, rows)
	})
}

// swapScanVertex scans all moves of sc's agent, returning the first
// violation in per-vertex order: deletion-criticality (when requested)
// before swaps, swaps in the engine's add-major enumeration order. An
// agent within distance two of everyone is settled by the locality lemma
// (withinTwo) once the deletion test has run. The swap scan skips adds
// onto current neighbors (the deletion-skip): such candidates realize pure
// deletions or no-ops, which never price strictly below cur, so the
// witness is unchanged while hub-heavy agents (a star center is adjacent
// to everyone) drop their whole endpoint-BFS scan. With rows set, each
// candidate is first bounded against its endpoint's shared row and only
// flagged candidates pay their exact BFS; the witness is the same.
func swapScanVertex(eng *pricing.Engine, view pricing.Snapshot, sc *pricing.Scan, obj Objective, deletionCritical bool, rows rowLookup) *Violation {
	po := pobj(obj)
	v := sc.V()
	cur := sc.CurrentUsage(po)
	if obj == Max && deletionCritical {
		if viol := deletionViolation(sc, v, cur); viol != nil {
			return viol
		}
	}
	if withinTwo(sc.CurrentRow()) {
		return nil
	}
	if rows != nil {
		cand, ok := scanAddMajorBatched(eng, view, sc, eng.Workers(), rows,
			func(add int) bool { return view.HasEdge(v, add) },
			patchedBelow(po), cur, true, scan.ByEnumeration)
		if !ok {
			return nil
		}
		return candViolation(sc, cur, cand)
	}
	if b, ok := sc.FirstImproving(po, true, cur); ok {
		return improvement(Move{V: v, Drop: b.Drop, Add: b.Add}, cur, b.Cost, true)
	}
	return nil
}

// deletionViolation checks the deletion-criticality half of the
// max-equilibrium condition from the scan's dropped-edge rows: deleting vw
// must strictly increase v's local diameter. Shared by the per-agent
// checker and the batched whole-graph sweep.
func deletionViolation(sc *pricing.Scan, v int, cur int64) *Violation {
	for i, w := range sc.Drops() {
		if del := sc.DeletionUsage(i, pricing.Max); del <= cur {
			return &Violation{
				Kind:    DeletionSafe,
				Edge:    graph.NewEdge(v, int(w)),
				Agent:   v,
				OldCost: cur,
				NewCost: del,
			}
		}
	}
	return nil
}

// sampleSwap draws the swap model's random probe: a uniform vertex, a
// uniform incident edge to drop, and a uniform new endpoint; infeasible
// draws (isolated vertex, add == v, add == drop) are wasted probes. deg
// and nb abstract the adjacency source so the fast (live CSR) and naive
// (map graph) instances consume rng identically.
func sampleSwap(rng *rand.Rand, n int, deg func(v int) int, nb func(v, i int) int) (Move, bool) {
	v := rng.Intn(n)
	d := deg(v)
	if d == 0 {
		return Move{}, false
	}
	w := nb(v, rng.Intn(d))
	wp := rng.Intn(n)
	if wp == v || wp == w {
		return Move{}, false
	}
	return Move{V: v, Drop: w, Add: wp}, true
}

// ---------------------------------------------------------------------------
// Fast instance: the incremental pricing session.

// SwapSession is the swap model's fast instance: it owns a live CSR
// snapshot (pricing.Session over graph.Dyn) kept in sync with the
// authoritative map-backed graph, so a whole dynamics trajectory — or a
// best-response iteration, or an equilibrium-certification sweep — prices
// every move against one snapshot that is patched in O(deg) per applied
// move instead of re-frozen in O(n+m).
//
// Lifecycle: NewSwapSession thaws the graph once (freeze), Apply routes
// each move to both structures (apply), the session's generation counter
// invalidates any outstanding scans and the probe-row cache (invalidate),
// and BestMove / FirstImproving / FindImprovement / CheckStable certify
// against the same live snapshot (certify). All pricing results are
// bit-identical to the one-shot engine paths (BestSwap, PriceSwaps) on the
// same graph, for any worker count.
//
// A SwapSession is single-writer: Apply and undo must not race with
// pricing calls. The pricing calls themselves shard internally across the
// session's workers.
type SwapSession struct {
	g       *graph.Graph
	ps      *pricing.Session
	eng     *pricing.Engine
	workers int
	probe   probeCache
	nbAt    func(v, i int) int // lazily built Sample accessor (avoids a per-probe closure)
}

// NewSwapSession starts a session on g with the given pricing parallelism
// (<= 0 means all cores). The engine (and its pooled BFS scratch) is
// shared with other sessions and one-shot calls at the same worker count.
func NewSwapSession(g *graph.Graph, workers int) *SwapSession {
	workers = normWorkers(workers)
	eng := pricing.Shared(workers)
	return &SwapSession{g: g, ps: eng.NewSession(g), eng: eng, workers: workers}
}

// Graph returns the authoritative mutable graph. Mutating it directly
// desynchronizes the session; route moves through Apply.
func (s *SwapSession) Graph() *graph.Graph { return s.g }

// SetScanCancel installs a cooperative cancel hook on the session's
// per-agent scans (see ScanCanceller).
func (s *SwapSession) SetScanCancel(cancel func() bool) { s.ps.SetCancel(cancel) }

// Workers returns the session's pricing parallelism.
func (s *SwapSession) Workers() int { return s.workers }

// View returns the live CSR snapshot for read-only use (e.g. sampling
// neighbors without allocating); mutate only through Apply.
func (s *SwapSession) View() *graph.Dyn { return s.ps.View() }

// Apply performs the swap m on both the graph and the live snapshot,
// returning a function that undoes the move on both (undos must be
// invoked in LIFO order). Invalid moves (non-swap kind, Drop not a
// neighbor) panic, like ApplyToGraph.
func (s *SwapSession) Apply(m Move) (undo func()) {
	if m.Kind != KindSwap {
		panic("game: SwapSession.Apply: move kind " + m.Kind.String())
	}
	gundo := ApplyToGraph(s.g, m)
	s.ps.ApplySwap(m.V, m.Drop, m.Add)
	return func() {
		s.ps.Undo()
		gundo()
	}
}

// Cost returns agent v's usage cost from one BFS row over the live
// snapshot. It equals Cost(g, v, obj) on the synced graph.
func (s *SwapSession) Cost(v int, obj Objective) int64 {
	dist, queue, release := s.eng.Scratch(s.ps.N())
	defer release()
	s.ps.View().BFSInto(v, dist, queue)
	return pricing.Usage(dist, pobj(obj))
}

// SocialCost returns the sum of all agents' usage costs (InfCost when the
// graph is disconnected), computed over the live snapshot.
func (s *SwapSession) SocialCost(obj Objective) int64 {
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

// BestMove returns agent v's cost-minimizing swap over the live snapshot,
// with the same deterministic (cost, drop, add) tie-break as BestSwap,
// plus v's current cost (read from the scan for free). The
// candidate-endpoint scan is sharded across the session's workers and
// skips adds onto current neighbors (pure deletions never price strictly
// below cur, so the improving winner is unchanged); an agent within
// distance two of everyone scans nothing (the locality lemma, withinTwo).
func (s *SwapSession) BestMove(v int, obj Objective) (best Move, oldCost, newCost int64, ok bool) {
	sc := s.ps.NewScan(v)
	defer sc.Close()
	cur := sc.CurrentUsage(pobj(obj))
	if withinTwo(sc.CurrentRow()) {
		return best, cur, cur, false
	}
	if b, found := sc.BestMove(pobj(obj), true); found && b.Cost < cur {
		return Move{V: v, Drop: b.Drop, Add: b.Add}, cur, b.Cost, true
	}
	return best, cur, cur, false
}

// FirstImproving returns agent v's first improving swap in the engine's
// add-major enumeration order — the first-improvement policy's move —
// sharded across the session's workers with a deterministic merge, so the
// result equals the sequential early-exit scan for any worker count. Like
// BestMove it skips adds onto current neighbors; no such candidate can
// price strictly below cur, so the first improving move is unchanged (the
// naive oracle keeps enumerating everything, pinning the skip). The
// locality lemma settles an agent within distance two of everyone.
func (s *SwapSession) FirstImproving(v int, obj Objective) (m Move, oldCost, newCost int64, ok bool) {
	sc := s.ps.NewScan(v)
	defer sc.Close()
	cur := sc.CurrentUsage(pobj(obj))
	if withinTwo(sc.CurrentRow()) {
		return m, cur, cur, false
	}
	if b, found := sc.FirstImproving(pobj(obj), true, cur); found {
		return Move{V: v, Drop: b.Drop, Add: b.Add}, cur, b.Cost, true
	}
	return m, cur, cur, false
}

// PriceSwaps streams every candidate swap of agent v over the live
// snapshot in the same add-major order as the package-level PriceSwaps,
// without re-freezing.
func (s *SwapSession) PriceSwaps(v int, obj Objective, fn func(m Move, newCost int64) bool) {
	scan := s.ps.NewScan(v)
	defer scan.Close()
	drops := scan.Drops()
	scan.ForEach(pobj(obj), false, func(i, add int, cost int64) bool {
		return fn(Move{V: v, Drop: int(drops[i]), Add: add}, cost)
	})
}

// PriceMove prices a single candidate move from two BFS rows over the live
// snapshot — d_{G−vw}(v,·) patched with d_{G−v}(w',·) — without mutating
// anything. It equals Evaluate(g, m, obj) on the synced graph and is the
// random-improving policy's probe path. Requires Add != V; Drop need not
// be a neighbor (a non-edge drop degenerates to pricing the insertion
// alone, matching Evaluate). The deviator's row is memoized across probes
// within one mutation generation (see probeCache), so repeated probes of
// the same (deviator, dropped edge) — the common case inside a patience
// window, whose keyspace is only 2m — skip that BFS entirely. The
// endpoint's row is keyed by (add, v), an n² keyspace that almost never
// repeats, so it is deliberately not cached.
func (s *SwapSession) PriceMove(m Move, obj Objective) int64 {
	dv := s.probeRow(probeKey{v: int32(m.V), drop: int32(m.Drop)})
	dw, qw, relW := s.eng.Scratch(s.ps.N())
	defer relW()
	s.ps.View().BFSSkipVertex(m.Add, m.V, dw, qw)
	return pricing.Patched(dv, dw, pobj(obj))
}

// FindImprovement scans agents in ascending order for the first improving
// swap — the certification sweep of the random-improving policy — skipping
// agents with a lower-labelled twin (see sweep). Within each agent the
// scan is sharded across the session's workers with the deterministic
// first-improvement merge, so the returned move is the same for any
// worker count. ok is false exactly when the graph is in swap equilibrium
// under obj.
func (s *SwapSession) FindImprovement(obj Objective) (m Move, oldCost, newCost int64, ok bool) {
	return findImprovement(s, obj)
}

// CheckStable reports whether no single swap strictly improves any agent,
// certifying against the live snapshot without re-freezing; each agent's
// scan is sharded across the session's workers. The verdict agrees with
// the one-shot CheckSwap on the synced graph.
func (s *SwapSession) CheckStable(obj Objective) (bool, *Violation, error) {
	n := s.ps.N()
	if n <= 1 {
		return true, nil, nil
	}
	dist, queue, release := s.eng.Scratch(n)
	if s.ps.View().BFSInto(0, dist, queue) != n {
		release()
		return false, nil, ErrDisconnected
	}
	release()
	found, _ := swapScan(nil, s.eng, s.ps.View(), s.ps.NewScan, obj, false, nil)
	return found == nil, found, nil
}

// twinView declares the swap model's agents interchangeable (see sweep).
func (s *SwapSession) twinView() adjacency { return s.ps.View() }

// Sample draws the swap model's random probe from the live snapshot.
func (s *SwapSession) Sample(rng *rand.Rand) (Move, bool) {
	view := s.ps.View()
	if s.nbAt == nil {
		s.nbAt = func(v, i int) int { return int(view.Neighbors(v)[i]) }
	}
	return sampleSwap(rng, view.N(), view.Degree, s.nbAt)
}

// ---------------------------------------------------------------------------
// Probe-row cache.

// probeKey identifies one memoizable deviator row of the live snapshot:
// d_{G−v·drop}(v,·), the row PriceMove patches candidate endpoints
// against.
type probeKey struct {
	v, drop int32
}

// probeCache memoizes PriceMove's deviator rows within one mutation
// generation. Random-improving dynamics fire Θ(patience) probes between
// applied moves; the (deviator, dropped edge) pair ranges over only 2m
// keys, so probes repeat it many times inside one patience window, and the
// row depends only on its key while the graph is unchanged — the cache
// converts those repeats into a map hit. Any applied or undone move bumps
// the session generation, which recycles every row (contents would be
// stale). Capacity is bounded; past it, rows are computed into pooled
// scratch uncached.
type probeCache struct {
	gen  uint64
	rows map[probeKey][]int32
	free [][]int32
}

// probeCacheCap bounds the resident rows (n int32 each).
const probeCacheCap = 4096

// probeRow returns the deviator row for k, cached when possible. The row
// is owned by the cache (or pooled scratch pinned until the next PriceMove
// on this session); callers must not retain it across calls.
func (s *SwapSession) probeRow(k probeKey) []int32 {
	c := &s.probe
	if gen := s.ps.Gen(); c.rows == nil || c.gen != gen {
		if c.rows == nil {
			c.rows = make(map[probeKey][]int32)
		} else {
			for key, row := range c.rows {
				c.free = append(c.free, row)
				delete(c.rows, key)
			}
		}
		c.gen = gen
	}
	if row, ok := c.rows[k]; ok {
		return row
	}
	n := s.ps.N()
	var row []int32
	if l := len(c.free); l > 0 {
		row, c.free = c.free[l-1], c.free[:l-1]
	} else {
		row = make([]int32, n)
	}
	_, queue, release := s.eng.Scratch(n)
	s.ps.View().BFSSkipEdge(int(k.v), int(k.v), int(k.drop), row, queue)
	release()
	if len(c.rows) < probeCacheCap {
		c.rows[k] = row
	} else {
		c.free = append(c.free, row)
	}
	return row
}

// ---------------------------------------------------------------------------
// Naive instance: the pre-session oracle.

// swapNaive prices every call against the map-backed graph — best-swap and
// first-improvement scans re-freeze per call, probes apply-measure-revert
// — reproducing the pre-session dynamics loop exactly.
type swapNaive struct {
	g       *graph.Graph
	workers int
}

func (s *swapNaive) Graph() *graph.Graph { return s.g }

func (s *swapNaive) Cost(v int, obj Objective) int64 { return Cost(s.g, v, obj) }

func (s *swapNaive) SocialCost(obj Objective) int64 { return SocialCost(s.g, obj) }

func (s *swapNaive) BestMove(v int, obj Objective) (Move, int64, int64, bool) {
	m, newCost, improves := BestSwap(s.g, v, obj, s.workers)
	if !improves {
		return Move{}, newCost, newCost, false
	}
	old := Cost(s.g, v, obj)
	return m, old, newCost, true
}

func (s *swapNaive) FirstImproving(v int, obj Objective) (Move, int64, int64, bool) {
	cur := Cost(s.g, v, obj)
	var chosen *Move
	var chosenCost int64
	PriceSwaps(s.g, v, obj, func(m Move, c int64) bool {
		if c < cur {
			mm := m
			chosen, chosenCost = &mm, c
			return false
		}
		return true
	})
	if chosen == nil {
		return Move{}, cur, cur, false
	}
	return *chosen, cur, chosenCost, true
}

func (s *swapNaive) PriceMove(m Move, obj Objective) int64 { return Evaluate(s.g, m, obj) }

func (s *swapNaive) Sample(rng *rand.Rand) (Move, bool) {
	return sampleSwap(rng, s.g.N(), s.g.Degree, func(v, i int) int {
		return s.g.Neighbors(v)[i]
	})
}

func (s *swapNaive) Apply(m Move) (undo func()) {
	if m.Kind != KindSwap {
		panic("game: swap Naive Apply: move kind " + m.Kind.String())
	}
	return ApplyToGraph(s.g, m)
}

func (s *swapNaive) FindImprovement(obj Objective) (Move, int64, int64, bool) {
	return findImprovement(s, obj)
}

// CheckStable is the oracle sweep over the naive FirstImproving, behind
// CheckSwap's connectivity gate: no pruning rule, so it stays the unpruned
// reference for the fast checkers.
func (s *swapNaive) CheckStable(obj Objective) (bool, *Violation, error) {
	if s.g.N() > 1 && !s.g.IsConnected() {
		return false, nil, ErrDisconnected
	}
	return sweepStable(s, obj)
}
