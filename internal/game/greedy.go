package game

import (
	"math/rand"

	"repro/internal/graph"
	"repro/internal/pricing"
	"repro/internal/scan"
)

// DefaultEdgeCost is the CLI default for the greedy model's per-edge
// maintenance price.
const DefaultEdgeCost = int64(2)

// Greedy is the greedy add/delete/swap deviation model studied by Kawald &
// Lenzner ("On Dynamics in Selfish Network Creation"): one single-edge
// operation per move — buy a new incident edge, delete an incident edge,
// or swap one — priced as
//
//	cost(v) = EdgeCost·deg(v) + usage(v)
//
// where usage is the SUM or MAX distance cost of the basic game and every
// vertex pays maintenance for each incident edge (the ownerless, bilateral
// accounting; the ownership-tracked α-game lives in internal/nash).
// Feasibility rules: an add target must be a non-neighbor, a delete target
// an incident edge, and a swap's new endpoint a fresh non-neighbor (a swap
// onto an existing edge would be a disguised deletion with the wrong
// maintenance delta, so it is excluded — deletions are enumerated
// explicitly). Deletions that disconnect the agent price to InfCost and
// are never improving.
//
// With EdgeCost = 0 adds are almost always improving and dynamics converge
// toward the complete graph; with large EdgeCost the model degenerates to
// pure delete/swap. Moderate costs trade edges against distance, the
// regime the related work studies.
type Greedy struct {
	// EdgeCost is the per-incident-edge maintenance price.
	EdgeCost int64
}

// Name returns "greedy".
func (Greedy) Name() string { return "greedy" }

// New starts an incremental greedy session on g.
func (m Greedy) New(g *graph.Graph, workers int) Instance {
	workers = normWorkers(workers)
	eng := pricing.Shared(workers)
	return &greedySession{g: g, ps: eng.NewSession(g), eng: eng, workers: workers, edgeCost: m.EdgeCost}
}

// Naive returns the apply-measure-revert oracle instance.
func (m Greedy) Naive(g *graph.Graph, workers int) Instance {
	return &greedyNaive{g: g, workers: normWorkers(workers), edgeCost: m.EdgeCost}
}

// sampleGreedy draws the greedy model's random probe: a uniform vertex, a
// uniform move kind, then the kind's endpoints; infeasible draws are
// wasted probes. The adjacency accessors abstract the fast/naive source so
// both instances consume rng identically.
func sampleGreedy(rng *rand.Rand, n int, deg func(v int) int, nb func(v, i int) int, hasEdge func(u, v int) bool) (Move, bool) {
	v := rng.Intn(n)
	switch rng.Intn(3) {
	case 0: // add
		w := rng.Intn(n)
		if w == v || hasEdge(v, w) {
			return Move{}, false
		}
		return Move{Kind: KindAdd, V: v, Add: w}, true
	case 1: // delete
		d := deg(v)
		if d == 0 {
			return Move{}, false
		}
		return Move{Kind: KindDelete, V: v, Drop: nb(v, rng.Intn(d))}, true
	default: // swap
		d := deg(v)
		if d == 0 {
			return Move{}, false
		}
		w := nb(v, rng.Intn(d))
		wp := rng.Intn(n)
		if wp == v || hasEdge(v, wp) {
			return Move{}, false
		}
		return Move{Kind: KindSwap, V: v, Drop: w, Add: wp}, true
	}
}

// ---------------------------------------------------------------------------
// Fast instance.

// greedySession prices greedy moves over a live pricing session. Per-agent
// scans enumerate adds (endpoints ascending), then deletions (dropped
// edges ascending), then swaps (the add-major order restricted to fresh
// endpoints); ties keep the enumeration-first candidate within a stage and
// the earlier stage across stages, so results are deterministic. The add
// and swap stages shard candidate endpoints across the session's workers
// on the unified scan engine with thresholded (abort-early) reductions;
// the merge is bit-identical to the sequential scan for any worker count.
type greedySession struct {
	g        *graph.Graph
	ps       *pricing.Session
	eng      *pricing.Engine
	workers  int
	edgeCost int64
}

func (s *greedySession) Graph() *graph.Graph { return s.g }

// SetScanCancel installs a cooperative cancel hook on the session's
// per-agent scans (see ScanCanceller).
func (s *greedySession) SetScanCancel(cancel func() bool) { s.ps.SetCancel(cancel) }

func (s *greedySession) Cost(v int, obj Objective) int64 {
	dist, queue, release := s.eng.Scratch(s.ps.N())
	defer release()
	s.ps.View().BFSInto(v, dist, queue)
	return s.edgeCost*int64(s.ps.View().Degree(v)) + pricing.Usage(dist, pobj(obj))
}

// SocialCost returns Σ_v cost(v) = 2·EdgeCost·m + Σ_v usage(v), InfCost
// when the graph is disconnected.
func (s *greedySession) SocialCost(obj Objective) int64 {
	n := s.ps.N()
	view := s.ps.View()
	dist, queue, release := s.eng.Scratch(n)
	defer release()
	total := 2 * s.edgeCost * int64(view.M())
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

func (s *greedySession) BestMove(v int, obj Objective) (Move, int64, int64, bool) {
	return s.scanMoves(v, obj, false)
}

func (s *greedySession) FirstImproving(v int, obj Objective) (Move, int64, int64, bool) {
	return s.scanMoves(v, obj, true)
}

// scanMoves enumerates all feasible moves of agent v in the model's
// deterministic order — adds (endpoints ascending), then deletions
// (dropped edges ascending), then swaps (add-major over fresh endpoints) —
// returning the minimum-cost strictly improving move (or the first one
// when firstOnly). The add and swap stages run on the unified scan engine,
// sharded across the session's workers; each stage's admission threshold
// is the running best of the earlier stages, so cost ties resolve toward
// the earlier stage and, within a stage, toward the enumeration-first
// candidate — exactly the sequential loop's outcome for any worker count.
func (s *greedySession) scanMoves(v int, obj Objective, firstOnly bool) (best Move, oldCost, newCost int64, ok bool) {
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

	// Adds: d_{G+vw}(v,·) = min(d_G(v,·), 1+d_G(w,·)), one BFS per fresh
	// endpoint against the scan's current row, offset by the maintenance
	// price of the extra edge.
	addOffset := s.edgeCost * (deg + 1)
	addPricer := func(ws bfsRow, add int, threshold func() int64, yield func(int, int64) bool) {
		view.BFSInto(add, ws.dist, ws.queue)
		if c, below := pricing.PatchedBelow(psc.CurrentRow(), ws.dist, po, threshold()-addOffset); below {
			yield(0, addOffset+c)
		}
	}
	if runStage(addPricer, func(c scan.Cand) Move { return Move{Kind: KindAdd, V: v, Add: c.Add} }) {
		return best, cur, bestCost, true
	}

	// Deletions: the scan's dropped-edge rows price them for free; no BFS
	// to shard, so this stage stays a sequential strict-improvement fold.
	for i, w := range psc.Drops() {
		if c := s.edgeCost*(deg-1) + psc.DeletionUsage(i, po); c < bestCost {
			best, bestCost, ok = Move{Kind: KindDelete, V: v, Drop: int(w)}, c, true
			if firstOnly {
				return best, cur, bestCost, true
			}
		}
	}

	// Swaps: add-major over fresh endpoints (the target edge must not
	// exist; deletions were priced above), against the dropped-edge rows.
	swapOffset := s.edgeCost * deg
	drops, dropRows := psc.Drops(), psc.DropRows()
	swapPricer := func(ws bfsRow, add int, threshold func() int64, yield func(int, int64) bool) {
		view.BFSSkipVertex(add, v, ws.dist, ws.queue)
		for i := range drops {
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

func (s *greedySession) PriceMove(m Move, obj Objective) int64 {
	po := pobj(obj)
	view := s.ps.View()
	n := view.N()
	deg := int64(view.Degree(m.V))
	switch m.Kind {
	case KindAdd:
		dv, qv, relV := s.eng.Scratch(n)
		defer relV()
		dw, qw, relW := s.eng.Scratch(n)
		defer relW()
		view.BFSInto(m.V, dv, qv)
		view.BFSInto(m.Add, dw, qw)
		return s.edgeCost*(deg+1) + pricing.Patched(dv, dw, po)
	case KindDelete:
		dist, queue, release := s.eng.Scratch(n)
		defer release()
		view.BFSSkipEdge(m.V, m.V, m.Drop, dist, queue)
		return s.edgeCost*(deg-1) + pricing.Usage(dist, po)
	default:
		dv, qv, relV := s.eng.Scratch(n)
		defer relV()
		dw, qw, relW := s.eng.Scratch(n)
		defer relW()
		view.BFSSkipEdge(m.V, m.V, m.Drop, dv, qv)
		view.BFSSkipVertex(m.Add, m.V, dw, qw)
		return s.edgeCost*deg + pricing.Patched(dv, dw, po)
	}
}

func (s *greedySession) Sample(rng *rand.Rand) (Move, bool) {
	view := s.ps.View()
	return sampleGreedy(rng, view.N(), view.Degree, func(v, i int) int {
		return int(view.Neighbors(v)[i])
	}, view.HasEdge)
}

func (s *greedySession) Apply(m Move) (undo func()) {
	gundo := ApplyToGraph(s.g, m)
	switch m.Kind {
	case KindAdd:
		s.ps.ApplyAdd(m.V, m.Add)
	case KindDelete:
		s.ps.ApplyRemove(m.V, m.Drop)
	default:
		s.ps.ApplySwap(m.V, m.Drop, m.Add)
	}
	return func() {
		s.ps.Undo()
		gundo()
	}
}

func (s *greedySession) FindImprovement(obj Objective) (Move, int64, int64, bool) {
	return findImprovement(s, obj)
}

// twinView declares the greedy model's agents interchangeable: the edge
// cost is the same for every vertex (see sweep).
func (s *greedySession) twinView() adjacency { return s.ps.View() }

func (s *greedySession) CheckStable(obj Objective) (bool, *Violation, error) {
	return sweepStable(s, obj)
}

// ---------------------------------------------------------------------------
// Naive instance.

// greedyNaive prices every candidate by apply-measure-revert on the map
// graph, in the same enumeration order as greedySession.
type greedyNaive struct {
	g        *graph.Graph
	workers  int
	edgeCost int64
}

func (s *greedyNaive) Graph() *graph.Graph { return s.g }

func (s *greedyNaive) Cost(v int, obj Objective) int64 {
	return s.edgeCost*int64(s.g.Degree(v)) + Cost(s.g, v, obj)
}

func (s *greedyNaive) SocialCost(obj Objective) int64 {
	usage := SocialCost(s.g, obj)
	if usage >= InfCost {
		return InfCost
	}
	return 2*s.edgeCost*int64(s.g.M()) + usage
}

func (s *greedyNaive) BestMove(v int, obj Objective) (Move, int64, int64, bool) {
	return s.scanMoves(v, obj, false)
}

func (s *greedyNaive) FirstImproving(v int, obj Objective) (Move, int64, int64, bool) {
	return s.scanMoves(v, obj, true)
}

func (s *greedyNaive) scanMoves(v int, obj Objective, firstOnly bool) (best Move, oldCost, newCost int64, ok bool) {
	n := s.g.N()
	cur := s.Cost(v, obj)
	bestCost := cur
	consider := func(m Move, c int64) bool {
		if c < bestCost {
			bestCost, best, ok = c, m, true
			return !firstOnly
		}
		return true
	}
	deg := int64(s.g.Degree(v))

	for w := 0; w < n; w++ {
		if w == v || s.g.HasEdge(v, w) {
			continue
		}
		m := Move{Kind: KindAdd, V: v, Add: w}
		if !consider(m, s.edgeCost*(deg+1)+Evaluate(s.g, m, obj)) {
			return best, cur, bestCost, true
		}
	}
	nbs := s.g.Neighbors(v)
	for _, w := range nbs {
		m := Move{Kind: KindDelete, V: v, Drop: w}
		if !consider(m, s.edgeCost*(deg-1)+Evaluate(s.g, m, obj)) {
			return best, cur, bestCost, true
		}
	}
	for add := 0; add < n; add++ {
		if add == v || s.g.HasEdge(v, add) {
			continue
		}
		for _, w := range nbs {
			m := Move{Kind: KindSwap, V: v, Drop: w, Add: add}
			if !consider(m, s.edgeCost*deg+Evaluate(s.g, m, obj)) {
				return best, cur, bestCost, true
			}
		}
	}
	return best, cur, bestCost, ok
}

func (s *greedyNaive) PriceMove(m Move, obj Objective) int64 {
	deg := int64(s.g.Degree(m.V))
	switch m.Kind {
	case KindAdd:
		deg++
	case KindDelete:
		deg--
	}
	return s.edgeCost*deg + Evaluate(s.g, m, obj)
}

func (s *greedyNaive) Sample(rng *rand.Rand) (Move, bool) {
	return sampleGreedy(rng, s.g.N(), s.g.Degree, func(v, i int) int {
		return s.g.Neighbors(v)[i]
	}, s.g.HasEdge)
}

func (s *greedyNaive) Apply(m Move) (undo func()) { return ApplyToGraph(s.g, m) }

func (s *greedyNaive) FindImprovement(obj Objective) (Move, int64, int64, bool) {
	return findImprovement(s, obj)
}

func (s *greedyNaive) CheckStable(obj Objective) (bool, *Violation, error) {
	return sweepStable(s, obj)
}
