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

// offsetPrice shifts a rowPrice by a constant cost (the greedy model's
// edge maintenance): the thresholded reduction runs against
// threshold − offset and reports offset + cost.
func offsetPrice(price rowPrice, offset int64) rowPrice {
	return func(dv, dw []int32, threshold int64) (int64, bool) {
		c, below := price(dv, dw, threshold-offset)
		return offset + c, below
	}
}

// targetMajor prices an interests agent's candidates from |I(v)| BFS rows
// of G−v rooted at its targets (see filter.go): price must return exactly
// what the model's rowPrice returns for the same candidate.
type targetMajor struct {
	rows  *lazyRows
	price func(dv []int32, cols [][]int32, add int, threshold int64) (int64, bool)
}

// swapCands configures one agent's add-major swap-candidate scan.
type swapCands struct {
	workers int
	// skipAdd filters endpoints before any work is paid (the deviator
	// itself is always skipped).
	skipAdd func(add int) bool
	price   rowPrice
	// threshold is the strict admission bound, the agent's current cost
	// (or a greedy stage's running best).
	threshold int64
	firstOnly bool
	// order is the best-move tie-break; the first-improving mode always
	// returns the enumeration-first candidate.
	order scan.Order
	// rows, when set, supplies each endpoint's shared full-graph row
	// d_G(w,·), a lower bound that filters candidates before their exact
	// BFS (see scanSwaps).
	rows rowLookup
	// far is the max objective's landmark filter (nil when off).
	far *farFilter
	// targets switches an interests scan to target-major pricing once
	// armed (nil when off).
	targets *targetMajor
}

// scanSwaps runs one agent's add-major swap-candidate scan on the unified
// scan engine: candidate endpoints ascending over all vertices except the
// deviator (cfg.skipAdd filters endpoints before their BFS is paid), and
// for each endpoint the scan's dropped edges ascending, priced by the
// model's thresholded reduction (cfg.price) over the dropped-edge row and
// the endpoint's G−v row. The winner is the minimum under cfg.order
// strictly below cfg.threshold or, with cfg.firstOnly, the first improving
// candidate in enumeration order; both are bit-identical to the
// workers == 1 scan for any worker count (the engine's merge contract).
//
// Per endpoint, the exact row is the last resort:
//
//  1. the far-set filter (cfg.far) may reject the endpoint outright;
//  2. armed target-major rows (cfg.targets) price it exactly with no BFS;
//  3. with cfg.rows, each drop is first bounded against the endpoint's
//     shared row — deleting the deviator only lengthens distances, and
//     price is monotone in its row argument — and only flagged drops pay
//     the exact d_{G−v}(add,·) BFS, computed at most once per endpoint;
//  4. otherwise the endpoint pays that BFS.
//
// Every exact BFS and every shared row built on first touch counts toward
// arming the lazy filters. All four steps are exact, so the result does
// not depend on which of them ran.
func scanSwaps(eng *pricing.Engine, view pricing.Snapshot, ps *pricing.Scan, cfg swapCands) (scan.Cand, bool) {
	v := ps.V()
	if len(ps.Drops()) == 0 {
		return scan.Cand{}, false
	}
	dropRows := ps.DropRows() // built here, before the scan shards
	spec := scan.Spec{
		Workers:   cfg.workers,
		N:         view.N(),
		Threshold: cfg.threshold,
		Order:     cfg.order,
		Skip: func(add int) bool {
			return add == v || (cfg.skipAdd != nil && cfg.skipAdd(add))
		},
		Cancel: ps.CancelHook(),
	}
	var targetRows *lazyRows
	if cfg.targets != nil {
		targetRows = cfg.targets.rows
	}
	paid := func() {
		cfg.far.pay()
		targetRows.pay()
	}
	pricer := func(ws bfsRow, add int, threshold func() int64, yield func(int, int64) bool) {
		if cfg.far.rejects(add, threshold()) {
			return
		}
		if cols := targetRows.get(); cols != nil {
			for i, dv := range dropRows {
				if c, below := cfg.targets.price(dv, cols, add, threshold()); below {
					if !yield(i, c) {
						return
					}
				}
			}
			return
		}
		var shared []int32
		if cfg.rows != nil {
			var built bool
			if shared, built = cfg.rows(add); built {
				paid()
			}
		}
		exact := false
		for i, dv := range dropRows {
			if shared != nil {
				if _, maybe := cfg.price(dv, shared, threshold()); !maybe {
					continue
				}
			}
			if !exact {
				view.BFSSkipVertex(add, v, ws.dist, ws.queue)
				exact = true
				paid()
			}
			if c, below := cfg.price(dv, ws.dist, threshold()); below {
				if !yield(i, c) {
					return
				}
			}
		}
	}
	state := scratchState(eng, view.N())
	if cfg.firstOnly {
		return scan.First(spec, state, pricer)
	}
	return scan.Best(spec, state, pricer)
}

// maxFilter returns the far-set filter of sc's agent for a distance max
// scan over every vertex — nil under Sum — with landmark rows in G−v
// patched against the scan's dropped-edge rows.
func maxFilter(eng *pricing.Engine, view pricing.Snapshot, sc *pricing.Scan, obj Objective, offset int64) *farFilter {
	if obj != Max {
		return nil
	}
	return newFarFilter(eng, view, sc.V(), sc.CurrentRow(), nil, false, sc.DropRows(), offset)
}
