package game

import (
	"repro/internal/pricing"
	"repro/internal/scan"
)

// bfsRow is the per-worker state the game layer's scans lend to the scan
// engine: one pooled (dist, queue) BFS buffer pair from the pricing
// engine's scratch pool.
type bfsRow struct {
	dist, queue []int32
}

// scratchState adapts the pricing engine's pooled scratch to the scan
// engine's per-worker state factory.
func scratchState(eng *pricing.Engine, n int) func() (bfsRow, func()) {
	return func() (bfsRow, func()) {
		dist, queue, release := eng.Scratch(n)
		return bfsRow{dist: dist, queue: queue}, release
	}
}

// rowPrice is a model's thresholded price of one swap candidate: the
// deviator's dropped-edge row dv patched with the endpoint's row dw. It
// must return the exact cost with below=true when the candidate prices
// strictly below threshold, and may abort early (returning below=false)
// as soon as the partial reduction proves it cannot.
type rowPrice func(dv, dw []int32, threshold int64) (cost int64, below bool)

// patchedBelow is the distance-cost rowPrice (pricing.PatchedBelow).
func patchedBelow(po pricing.Objective) rowPrice {
	return func(dv, dw []int32, threshold int64) (int64, bool) {
		return pricing.PatchedBelow(dv, dw, po, threshold)
	}
}

// scanAddMajor runs the add-major swap-candidate scan shared by the
// Interests and Budget models on the unified scan engine: candidate
// endpoints ascending over all vertices except the deviator (skipAdd
// filters endpoints before their BFS is paid), and for each endpoint the
// scan's dropped edges ascending, priced by the model-supplied thresholded
// reduction (rowPrice) over the scan's dropped-edge row and the endpoint's
// G−v row — dense interest sets pay only as much of their Θ(|I(v)|)
// reduction as each comparison needs. The winner is the minimum
// (cost, add, dropIdx) strictly below cur — the scan engine's
// ByEnumeration order, the enumeration-first tie-break of the sequential
// loop these models used to run — or, when firstOnly, the first improving
// candidate in enumeration order. Results are bit-identical to the
// workers == 1 scan for any worker count (the engine's merge contract).
func scanAddMajor(eng *pricing.Engine, view pricing.Snapshot, ps *pricing.Scan,
	workers int, skipAdd func(add int) bool, price rowPrice,
	cur int64, firstOnly bool) (scan.Cand, bool) {
	v := ps.V()
	if len(ps.Drops()) == 0 {
		return scan.Cand{}, false
	}
	dropRows := ps.DropRows() // built here, before the scan shards
	spec := scan.Spec{
		Workers:   workers,
		N:         view.N(),
		Threshold: cur,
		Order:     scan.ByEnumeration,
		Skip: func(add int) bool {
			return add == v || (skipAdd != nil && skipAdd(add))
		},
		Cancel: ps.CancelHook(),
	}
	pricer := func(ws bfsRow, add int, threshold func() int64, yield func(int, int64) bool) {
		view.BFSSkipVertex(add, v, ws.dist, ws.queue)
		for i, dv := range dropRows {
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
