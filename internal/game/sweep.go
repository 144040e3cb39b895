package game

import (
	"cmp"
	"context"
	"slices"

	"repro/internal/pricing"
	"repro/internal/scan"
)

// This file holds the one certification loop every checker, every
// FindImprovement and every batched pass runs, and the two exact pruning
// rules that let it certify fewer agents while returning the same verdict
// and witness:
//
//   - Twins (in the sweep). When N(u)∖{v} = N(v)∖{u} for some u < v,
//     exchanging u and v is an automorphism, so v's scan mirrors u's: v
//     is unstable exactly when u is, and the first unstable agent is
//     always the lowest label of its twin class. The rule needs a model
//     whose parameters are the same for every agent — swap, greedy,
//     budget and 2nb — and never holds for interests, whose per-agent
//     sets the exchange need not preserve.
//   - The locality lemma (in the per-agent scans, see withinTwo). An agent
//     within distance two of every vertex has no strictly improving swap.
//     It holds for swap, budget and 2nb, in sweeps, dynamics and best
//     responses alike; greedy and interests never use it.
//
// The Naive oracle instances declare neither rule: they stay the unpruned
// reference the differential tests and the conformance floor compare
// against.

// adjacency is the read surface the twin rule needs: sorted neighbor
// lists. graph.Frozen and graph.Dyn (every pricing.Snapshot) provide it.
type adjacency interface {
	N() int
	Neighbors(v int) []int32
}

// sweep is the certification loop: agents in ascending label order, ctx
// (nil tolerated) polled between agents, and the first violation agent(v)
// reports returned — nil when every agent is stable. Each agent's scan is
// one bounded bundle of BFS work, so cancellation latency is one agent's
// scan, not one whole sweep.
//
// A non-nil twins declares that the model treats every agent alike and
// supplies the position's adjacency: once agent 0 has been found stable,
// the sweep computes the twin classes (LowerTwins) and skips every agent
// with a lower-labelled twin. An unstable position whose agent 0 is
// unstable pays nothing for the rule.
func sweep(ctx context.Context, n int, twins adjacency, agent func(v int) *Violation) (*Violation, error) {
	var skip []bool
	for v := 0; v < n; v++ {
		if err := pollCtx(ctx); err != nil {
			return nil, err
		}
		if skip != nil && skip[v] {
			continue
		}
		if viol := agent(v); viol != nil {
			return viol, nil
		}
		if v == 0 && twins != nil {
			skip = LowerTwins(twins)
		}
	}
	return nil, nil
}

// improvement wraps an improving move as the sweep's violation (nil when
// ok is false).
func improvement(m Move, oldCost, newCost int64, ok bool) *Violation {
	if !ok {
		return nil
	}
	return &Violation{Kind: SwapImproves, Move: m, Agent: m.V, OldCost: oldCost, NewCost: newCost}
}

// candViolation is improvement for a swap candidate found by sc's
// add-major scan.
func candViolation(sc *pricing.Scan, cur int64, c scan.Cand) *Violation {
	v := sc.V()
	return improvement(Move{V: v, Drop: int(sc.Drops()[c.DropIdx]), Add: c.Add}, cur, c.Cost, true)
}

// asMove unpacks a sweep's improving-move violation into FindImprovement's
// shape; a nil receiver is the stable outcome.
func (v *Violation) asMove() (Move, int64, int64, bool) {
	if v == nil {
		return Move{}, 0, 0, false
	}
	return v.Move, v.OldCost, v.NewCost, true
}

// uniformAgents is implemented by the fast instances of the models whose
// parameters are the same for every agent (swap, greedy, budget, 2nb):
// twinView returns the live adjacency their sweeps read twins from.
// Interests and the Naive oracles do not implement it, so their sweeps
// skip no agent.
type uniformAgents interface {
	twinView() adjacency
}

// twinView returns inst's twin adjacency, or nil when its sweeps may not
// skip twins.
func twinView(inst Instance) adjacency {
	if u, ok := inst.(uniformAgents); ok {
		return u.twinView()
	}
	return nil
}

// withinTwo is the locality lemma's premise, read off agent v's own BFS
// row: every vertex lies within distance two of v (an Unreachable entry
// fails it). Such an agent has no strictly improving swap under sum or
// max: dropping (v,a) for (v,b) brings only b closer, by at most 1 (from
// 2), and pushes a away by at least 1, so the sum cannot fall, and the
// maximum cannot fall below a's new distance of at least 2, which is at
// least the old maximum. Budget moves are a subset of swaps, and under 2nb such an agent's cost
// is already 0 (the 2nb scan reads the same premise off its counter as
// cur == 0). Greedy (adds and deletions can improve) and interests (a may
// lie outside I(v)) never use it.
//
// Callers settle v as stable when it holds — returning exactly what their
// scan returns for a stable agent — after any deletion-criticality test,
// and, in the row-cached scans, after the row-cache Sync, whose counters
// the dynamics results report.
func withinTwo(row []int32) bool {
	for _, d := range row {
		if d < 0 || d > 2 {
			return false
		}
	}
	return true
}

// twinKey is one vertex's neighborhood digest in the twin pass.
type twinKey struct {
	digest uint64
	deg    int32
	v      int32
}

// LowerTwins marks every vertex v that has a twin u < v, that is
// N(u)∖{v} = N(v)∖{u}; it returns nil when the graph has no twins. Twins
// are either non-adjacent with equal open neighborhoods or adjacent with
// equal closed ones, so each vertex gets two order-independent integer
// digests, Σ_{w∈N(v)} h(w) and that plus h(v), and twins share one of
// them. One radix sort of the 2n digests finds the shared ones; a twin-free
// graph stops there. Otherwise the vertex ids holding a shared digest are
// sorted by (digest, degree, id), which puts every twin class into one run
// of equal keys, lowest label first, and each candidate match is
// confirmed by comparing the sorted neighbor lists. The twin relation is
// an equivalence (no vertex has both an adjacent and a non-adjacent
// twin), so comparing against the lowest member of each class in a run
// suffices. Cost: O(m) hashing, one sort of 2n integers, and for graphs
// with twins O(deg) per confirming comparison.
func LowerTwins(adj adjacency) []bool {
	n := adj.N()
	open := make([]uint64, n)
	digests := make([]uint64, 0, 2*n)
	for v := 0; v < n; v++ {
		var d uint64
		for _, w := range adj.Neighbors(v) {
			d += mix64(uint64(w))
		}
		open[v] = d
		digests = append(digests, d, d+mix64(uint64(v)))
	}
	radixSort(digests, make([]uint64, len(digests)))
	var shared []uint64
	for i := 1; i < len(digests); i++ {
		if digests[i] == digests[i-1] && (len(shared) == 0 || shared[len(shared)-1] != digests[i]) {
			shared = append(shared, digests[i])
		}
	}
	if shared == nil {
		return nil
	}
	var keys []twinKey
	for v := 0; v < n; v++ {
		deg := int32(len(adj.Neighbors(v)))
		for _, d := range [2]uint64{open[v], open[v] + mix64(uint64(v))} {
			if _, ok := slices.BinarySearch(shared, d); ok {
				keys = append(keys, twinKey{d, deg, int32(v)})
			}
		}
	}
	slices.SortFunc(keys, func(a, b twinKey) int {
		if c := cmp.Compare(a.digest, b.digest); c != 0 {
			return c
		}
		if c := cmp.Compare(a.deg, b.deg); c != 0 {
			return c
		}
		return cmp.Compare(a.v, b.v)
	})
	var skip []bool
	var reps []int32 // lowest member of each class seen in the current run
	for lo := 0; lo < len(keys); {
		hi := lo + 1
		for hi < len(keys) && keys[hi].digest == keys[lo].digest && keys[hi].deg == keys[lo].deg {
			hi++
		}
		reps = reps[:0]
	run:
		for _, k := range keys[lo:hi] {
			if skip != nil && skip[k.v] {
				continue
			}
			for _, u := range reps {
				if u != k.v && areTwins(adj, int(u), int(k.v)) {
					if skip == nil {
						skip = make([]bool, n)
					}
					skip[k.v] = true
					continue run
				}
			}
			reps = append(reps, k.v)
		}
		lo = hi
	}
	return skip
}

// radixSort sorts a in place, one byte per pass from the lowest, with tmp
// (len(a)) as scratch: O(8·len(a)) for the uniformly spread digests of
// LowerTwins, several times faster there than a comparison sort.
func radixSort(a, tmp []uint64) {
	for shift := 0; shift < 64; shift += 8 {
		var start [257]int
		for _, x := range a {
			start[x>>shift&0xff+1]++
		}
		for b := 1; b < len(start); b++ {
			start[b] += start[b-1]
		}
		for _, x := range a {
			b := x >> shift & 0xff
			tmp[start[b]] = x
			start[b]++
		}
		a, tmp = tmp, a
	}
}

// areTwins reports N(u)∖{v} = N(v)∖{u} by one merge over the two sorted
// neighbor lists.
func areTwins(adj adjacency, u, v int) bool {
	a, b := adj.Neighbors(u), adj.Neighbors(v)
	i, j := 0, 0
	for {
		if i < len(a) && int(a[i]) == v {
			i++
		}
		if j < len(b) && int(b[j]) == u {
			j++
		}
		if i == len(a) || j == len(b) {
			return i == len(a) && j == len(b)
		}
		if a[i] != b[j] {
			return false
		}
		i++
		j++
	}
}

// mix64 is the SplitMix64 finalizer, a bijection on uint64 that spreads
// vertex ids before they are summed into a neighborhood digest.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
