package main

import (
	"math/rand"
	"sort"
	"strings"
)

// simpleGraph is the benchmark's own graph: n vertices and an edge list
// with u < v, no duplicates. Request graphs are generated, relabeled and
// encoded here rather than by the repository's constructions or graphio,
// so every commit under test receives byte-identical request bytes.
type simpleGraph struct {
	n     int
	edges [][2]int32
}

// builder accumulates a simple graph, ignoring loops and duplicate edges.
type builder struct {
	n    int
	seen map[[2]int32]bool
	g    simpleGraph
}

func newBuilder(n int) *builder {
	return &builder{n: n, seen: map[[2]int32]bool{}, g: simpleGraph{n: n}}
}

func (b *builder) add(u, v int) bool {
	if u == v {
		return false
	}
	if u > v {
		u, v = v, u
	}
	e := [2]int32{int32(u), int32(v)}
	if b.seen[e] {
		return false
	}
	b.seen[e] = true
	b.g.edges = append(b.g.edges, e)
	return true
}

// chords adds c random non-edges between distinct vertices of lo..n-1.
func (b *builder) chords(rng *rand.Rand, c, lo int) {
	span := b.n - lo
	if span < 2 {
		return
	}
	for added, tries := 0, 0; added < c && tries < 100*c; tries++ {
		if b.add(lo+rng.Intn(span), lo+rng.Intn(span)) {
			added++
		}
	}
}

// starChords is the star on n vertices (centre 0) plus c random
// leaf–leaf chords: a sum equilibrium of the swap game, so checking it
// needs a full scan.
func starChords(rng *rand.Rand, n, c int) simpleGraph {
	b := newBuilder(n)
	for v := 1; v < n; v++ {
		b.add(0, v)
	}
	if c > 0 {
		b.chords(rng, c, 1)
	}
	return b.g
}

// doubleStar joins centres 0 and 1 and hangs a leaves on 0 and the rest
// on 1.
func doubleStar(n, a int) simpleGraph {
	b := newBuilder(n)
	b.add(0, 1)
	for v := 2; v < n; v++ {
		if v < 2+a {
			b.add(0, v)
		} else {
			b.add(1, v)
		}
	}
	return b.g
}

// pruferTree draws a uniform labeled tree on n >= 2 vertices (diameter
// about 3√n, so colour refinement needs many rounds) and adds c chords.
func pruferTree(rng *rand.Rand, n, c int) simpleGraph {
	b := newBuilder(n)
	if n == 2 {
		b.add(0, 1)
		return b.g
	}
	seq := make([]int, n-2)
	deg := make([]int, n)
	for i := range seq {
		seq[i] = rng.Intn(n)
		deg[seq[i]]++
	}
	for _, x := range seq {
		for leaf := 0; leaf < n; leaf++ {
			if deg[leaf] == 0 {
				b.add(leaf, x)
				deg[leaf] = -1
				deg[x]--
				break
			}
		}
	}
	var last []int
	for v := 0; v < n; v++ {
		if deg[v] == 0 {
			last = append(last, v)
		}
	}
	b.add(last[0], last[1])
	b.chords(rng, c, 0)
	return b.g
}

// spider has a centre 0 and legs paths of length leg each.
func spider(legs, leg int) simpleGraph {
	n := 1 + legs*leg
	b := newBuilder(n)
	v := 1
	for l := 0; l < legs; l++ {
		prev := 0
		for s := 0; s < leg; s++ {
			b.add(prev, v)
			prev = v
			v++
		}
	}
	return b.g
}

// relabel applies a seeded random permutation of the vertex labels.
func relabel(rng *rand.Rand, g simpleGraph) simpleGraph {
	return relabelFirst(rng, g, -1)
}

// relabelFirst is relabel with vertex first (when >= 0) moved to label 0,
// the first agent a certification sweep scans.
func relabelFirst(rng *rand.Rand, g simpleGraph, first int) simpleGraph {
	perm := rng.Perm(g.n)
	if first >= 0 {
		for v, p := range perm {
			if p == 0 {
				perm[v], perm[first] = perm[first], 0
				break
			}
		}
	}
	out := simpleGraph{n: g.n, edges: make([][2]int32, len(g.edges))}
	for i, e := range g.edges {
		u, v := int32(perm[e[0]]), int32(perm[e[1]])
		if u > v {
			u, v = v, u
		}
		out.edges[i] = [2]int32{u, v}
	}
	return out
}

// sparse6 encodes g in the standard sparse6 format (nauty's formats.txt):
// ':' + N(n) + the edge bit stream, edges ordered by (max, min) endpoint.
func sparse6(g simpleGraph) string {
	n := g.n
	var sb strings.Builder
	sb.WriteByte(':')
	if n <= 62 {
		sb.WriteByte(byte(n + 63))
	} else {
		sb.WriteByte(126)
		sb.WriteByte(byte(n>>12&63) + 63)
		sb.WriteByte(byte(n>>6&63) + 63)
		sb.WriteByte(byte(n&63) + 63)
	}
	k := 1
	for 1<<k < n {
		k++
	}
	edges := append([][2]int32(nil), g.edges...)
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][1] != edges[j][1] {
			return edges[i][1] < edges[j][1]
		}
		return edges[i][0] < edges[j][0]
	})
	var bits []byte
	put := func(b bool, x int) {
		if b {
			bits = append(bits, 1)
		} else {
			bits = append(bits, 0)
		}
		for i := k - 1; i >= 0; i-- {
			bits = append(bits, byte(x>>i&1))
		}
	}
	cur := 0
	for _, e := range edges {
		u, v := int(e[0]), int(e[1])
		switch {
		case v == cur:
			put(false, u)
		case v == cur+1:
			cur = v
			put(true, u)
		default:
			cur = v
			put(true, v)
			put(false, u)
		}
	}
	// Padding is 1 bits, led by one 0 bit in the case the format names
	// (n = 2^k < 64, the stream ends at vertex n-2, and k+1 or more bits
	// to pad), where all-ones padding would read as a loop at n-1.
	if pad := (6 - len(bits)%6) % 6; k < 6 && n == 1<<k && cur == n-2 && pad > k {
		bits = append(bits, 0)
	}
	for len(bits)%6 != 0 {
		bits = append(bits, 1)
	}
	for i := 0; i < len(bits); i += 6 {
		c := 0
		for _, b := range bits[i : i+6] {
			c = c<<1 | int(b)
		}
		sb.WriteByte(byte(c + 63))
	}
	return sb.String()
}

// interestSets gives every vertex k distinct random other vertices.
func interestSets(rng *rand.Rand, n, k int) [][]int32 {
	sets := make([][]int32, n)
	for v := range sets {
		seen := map[int32]bool{}
		for len(sets[v]) < k && len(sets[v]) < n-1 {
			u := int32(rng.Intn(n))
			if u != int32(v) && !seen[u] {
				seen[u] = true
				sets[v] = append(sets[v], u)
			}
		}
		sort.Slice(sets[v], func(i, j int) bool { return sets[v][i] < sets[v][j] })
	}
	return sets
}
