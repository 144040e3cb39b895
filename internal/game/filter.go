package game

import (
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/pricing"
)

// This file holds the two exact candidate filters that let a scan skip the
// per-candidate BFS no verdict needs. Both read the same identity the
// pricing engine prices with: after agent v swaps (v,w) for (v,w'),
//
//	d'(v,x) = min( d_{G−vw}(v,x), 1 + d_{G−v}(w',x) ),
//
// and the graph is undirected, so one BFS of G−v from a fixed vertex x
// yields d_{G−v}(w',x) for every candidate endpoint w' at once.
//
//   - Far-set landmarks (max objectives). A max cost is at least any one
//     of its terms, so for a landmark ℓ the cost of (drop i, endpoint w')
//     is at least min(dropRow_i[ℓ], 1 + L_ℓ[w']), with L_ℓ = d_{G−v}(ℓ,·)
//     (d_G(ℓ,·) for greedy adds, which exclude no vertex). Landmarks come
//     from v's far set — the vertices at v's current eccentricity,
//     restricted to I(v) under interests — where that bound is tightest:
//     a swap can only improve v if it brings every far vertex closer.
//     farFilter.rejects skips an endpoint whose bound reaches the scan's
//     admission threshold for every dropped edge, before its BFS or its
//     shared row is paid.
//   - Target-major pricing (interests). An interests cost reads the
//     endpoint's row only at I(v), so |I(v)| BFS of G−v from the targets
//     price every candidate exactly (pricing.PatchedTargetsBelow).
//
// Both sets of rows are lazyRows: built by the scan worker whose BFS
// payment brings the scan's count up to what the rows cost, so a scan that
// exits early pays nothing for them. The filters are exact — a rejected
// candidate prices at or above the threshold, and target-major costs equal
// the per-endpoint ones — so when they arm changes no verdict, witness or
// enumeration order. The Naive oracles and the package-level BestSwap and
// PriceSwaps, which report non-improving candidates, never use them.

// maxLandmarks bounds the far-set landmarks one scan builds.
const maxLandmarks = 4

// lazyRows is a fixed set of BFS rows from srcs — in G−skip, or in G when
// skip < 0 — built once the owning scan has paid len(srcs) BFS of its
// own. Building is done once, by the worker whose payment reaches the
// count, and published atomically; until then get returns nil. A nil
// *lazyRows is a disabled set: pay is a no-op and get returns nil.
type lazyRows struct {
	eng  *pricing.Engine
	view pricing.Snapshot
	skip int
	srcs []int32
	paid atomic.Int64
	rows atomic.Pointer[[][]int32]
}

func newLazyRows(eng *pricing.Engine, view pricing.Snapshot, skip int, srcs []int32) *lazyRows {
	r := &lazyRows{eng: eng, view: view, skip: skip, srcs: srcs}
	if len(srcs) == 0 {
		r.rows.Store(&[][]int32{})
	}
	return r
}

// pay records one BFS the scan paid, building the rows when the count
// reaches their cost.
func (r *lazyRows) pay() {
	if r != nil && r.paid.Add(1) == int64(len(r.srcs)) {
		r.build()
	}
}

// get returns the rows, rows[j] from srcs[j], or nil until they are built.
func (r *lazyRows) get() [][]int32 {
	if r == nil {
		return nil
	}
	if p := r.rows.Load(); p != nil {
		return *p
	}
	return nil
}

func (r *lazyRows) build() {
	n := r.view.N()
	_, queue, release := r.eng.Scratch(n)
	defer release()
	arena := make([]int32, len(r.srcs)*n)
	rows := make([][]int32, len(r.srcs))
	for j, src := range r.srcs {
		row := arena[j*n : (j+1)*n : (j+1)*n]
		if r.skip < 0 {
			r.view.BFSInto(int(src), row, queue)
		} else {
			r.view.BFSSkipVertex(int(src), r.skip, row, queue)
		}
		rows[j] = row
	}
	r.rows.Store(&rows)
}

// farFilter is the far-set landmark filter of one max scan (or one stage
// of a greedy scan). base holds the deviator rows the bound patches — the
// scan's dropped-edge rows, or d_G(v,·) alone for greedy adds — and offset
// the stage's edge-cost offset. A nil *farFilter rejects nothing.
type farFilter struct {
	*lazyRows
	base   [][]int32
	offset int64
}

// newFarFilter returns the filter for agent v with current row cur, its
// landmarks drawn from v's far set among targets (every vertex when
// targets is nil); nil when the far set is empty. inG selects landmark
// rows in G (greedy adds) instead of G−v.
func newFarFilter(eng *pricing.Engine, view pricing.Snapshot, v int, cur []int32, targets []int32,
	inG bool, base [][]int32, offset int64) *farFilter {
	lm := farLandmarks(v, cur, targets)
	if len(lm) == 0 {
		return nil
	}
	skip := v
	if inG {
		skip = -1
	}
	return &farFilter{lazyRows: newLazyRows(eng, view, skip, lm), base: base, offset: offset}
}

// pay records one BFS the scan paid (see lazyRows.pay).
func (f *farFilter) pay() {
	if f != nil {
		f.lazyRows.pay()
	}
}

// rejects reports whether every dropped edge of candidate endpoint add
// has a landmark bound at or above threshold − offset, so that no drop of
// add can price strictly below threshold. It rejects nothing until the
// landmark rows are built.
func (f *farFilter) rejects(add int, threshold int64) bool {
	if f == nil {
		return false
	}
	rows := f.get()
	if rows == nil {
		return false
	}
	limit := threshold - f.offset
	for _, dv := range f.base {
		rejected := false
		for j, l := range f.srcs {
			if farBound(dv[l], rows[j][add]) >= limit {
				rejected = true
				break
			}
		}
		if !rejected {
			return false
		}
	}
	return true
}

// farBound is one landmark's lower bound on a patched max: min(a, 1+b)
// with graph.Unreachable as +∞ (InfCost, which a pricer reports for a
// target unreachable through both rows).
func farBound(a, b int32) int64 {
	switch {
	case a == graph.Unreachable && b == graph.Unreachable:
		return InfCost
	case a == graph.Unreachable:
		return int64(b) + 1
	case b == graph.Unreachable || a <= b+1:
		return int64(a)
	default:
		return int64(b) + 1
	}
}

// farLandmarks returns up to maxLandmarks vertices of v's far set — the
// vertices x among targets (all vertices but v when targets is nil) at
// the largest distance cur[x], graph.Unreachable counting as +∞ — taking
// the first, last, middle and quarter entries of the ascending set.
func farLandmarks(v int, cur []int32, targets []int32) []int32 {
	far, count := int32(0), 0
	visit := func(x int) {
		d := cur[x]
		switch {
		case x == v:
		case d == far:
			count++
		case far != graph.Unreachable && (d == graph.Unreachable || d > far):
			far, count = d, 1
		}
	}
	if targets == nil {
		for x := range cur {
			visit(x)
		}
	} else {
		for _, x := range targets {
			visit(int(x))
		}
	}
	if count == 0 || far == 0 {
		return nil
	}
	var picks []int
	for _, k := range [maxLandmarks]int{0, count - 1, count / 2, count / 4} {
		dup := false
		for _, p := range picks {
			dup = dup || p == k
		}
		if !dup {
			picks = append(picks, k)
		}
	}
	lm := make([]int32, 0, len(picks))
	k := 0
	take := func(x int) {
		if x == v || cur[x] != far {
			return
		}
		for _, p := range picks {
			if p == k {
				lm = append(lm, int32(x))
			}
		}
		k++
	}
	if targets == nil {
		for x := range cur {
			take(x)
		}
	} else {
		for _, x := range targets {
			take(int(x))
		}
	}
	return lm
}
