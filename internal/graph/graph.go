// Package graph implements the undirected-graph substrate for the basic
// network creation game: a mutable simple graph over sorted adjacency
// lists (O(log deg) membership tests, O(deg) edge insertion and
// deletion), breadth-first search, all-pairs shortest
// paths (sequential and parallel), and the structural predicates the paper's
// proofs refer to (diameter, eccentricity, girth, cut vertices, power
// graphs, distance histograms).
//
// Vertices are the integers 0..n-1. All graphs are simple (no loops, no
// multi-edges) and undirected. Distances are measured in hops; -1 denotes
// "unreachable" in all distance outputs.
package graph

import (
	"fmt"
	"slices"
)

// Unreachable is the distance value reported for unreachable vertex pairs.
const Unreachable = -1

// Edge is an undirected edge with normalized endpoints (U < V).
type Edge struct {
	U, V int
}

// NewEdge returns the normalized edge {min(u,v), max(u,v)}.
func NewEdge(u, v int) Edge {
	if u > v {
		u, v = v, u
	}
	return Edge{u, v}
}

// Graph is a mutable simple undirected graph on vertices 0..n-1.
// The zero value is an empty graph on zero vertices; use New to size it.
type Graph struct {
	adj [][]int32 // adj[v] = neighbors of v, ascending
	m   int
}

// New returns an empty graph on n vertices. It panics if n < 0.
func New(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative vertex count %d", n))
	}
	return &Graph{adj: make([][]int32, n)}
}

// FromEdges builds a graph on n vertices from an edge list.
// Duplicate edges and self-loops are rejected with an error.
func FromEdges(n int, edges []Edge) (*Graph, error) {
	g := New(n)
	for _, e := range edges {
		if e.U == e.V {
			return nil, fmt.Errorf("graph: self-loop at %d", e.U)
		}
		if e.U < 0 || e.V < 0 || e.U >= n || e.V >= n {
			return nil, fmt.Errorf("graph: edge %v out of range [0,%d)", e, n)
		}
		if !g.AddEdge(e.U, e.V) {
			return nil, fmt.Errorf("graph: duplicate edge %v", e)
		}
	}
	return g, nil
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// HasEdge reports whether edge uv exists.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || v < 0 || u >= len(g.adj) || v >= len(g.adj) {
		return false
	}
	_, ok := slices.BinarySearch(g.adj[u], int32(v))
	return ok
}

// AddEdge inserts edge uv. It returns false (and does nothing) if the edge
// already exists or u == v. It panics if either endpoint is out of range.
func (g *Graph) AddEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	if u == v {
		return false
	}
	i, ok := slices.BinarySearch(g.adj[u], int32(v))
	if ok {
		return false
	}
	g.adj[u] = slices.Insert(g.adj[u], i, int32(v))
	j, _ := slices.BinarySearch(g.adj[v], int32(u))
	g.adj[v] = slices.Insert(g.adj[v], j, int32(u))
	g.m++
	return true
}

// RemoveEdge deletes edge uv. It returns false if the edge was absent.
func (g *Graph) RemoveEdge(u, v int) bool {
	if u < 0 || v < 0 || u >= len(g.adj) || v >= len(g.adj) {
		return false
	}
	i, ok := slices.BinarySearch(g.adj[u], int32(v))
	if !ok {
		return false
	}
	g.adj[u] = slices.Delete(g.adj[u], i, i+1)
	j, _ := slices.BinarySearch(g.adj[v], int32(u))
	g.adj[v] = slices.Delete(g.adj[v], j, j+1)
	g.m--
	return true
}

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int {
	g.check(v)
	return len(g.adj[v])
}

// Neighbors returns the neighbors of v in increasing order.
// The returned slice is freshly allocated.
func (g *Graph) Neighbors(v int) []int {
	g.check(v)
	out := make([]int, len(g.adj[v]))
	for i, u := range g.adj[v] {
		out[i] = int(u)
	}
	return out
}

// AppendNeighbors appends the neighbors of v to buf (in increasing order)
// and returns the extended slice. It lets hot loops avoid per-call
// allocation.
func (g *Graph) AppendNeighbors(buf []int, v int) []int {
	for _, u := range g.adj[v] {
		buf = append(buf, int(u))
	}
	return buf
}

// EachNeighbor calls fn for every neighbor of v in increasing order.
// fn must not mutate the graph.
func (g *Graph) EachNeighbor(v int, fn func(u int)) {
	for _, u := range g.adj[v] {
		fn(int(u))
	}
}

// Edges returns all edges sorted lexicographically.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.m)
	for u, nb := range g.adj {
		for _, v := range nb {
			if u < int(v) {
				out = append(out, Edge{u, int(v)})
			}
		}
	}
	return out
}

// NonNeighbors returns, in increasing order, the vertices that are neither
// v itself nor adjacent to v. These are exactly the candidate endpoints for
// an edge insertion at v.
func (g *Graph) NonNeighbors(v int) []int {
	g.check(v)
	out := make([]int, 0, len(g.adj)-1-len(g.adj[v]))
	nb := g.adj[v]
	for u := 0; u < len(g.adj); u++ {
		if len(nb) > 0 && int(nb[0]) == u {
			nb = nb[1:]
			continue
		}
		if u != v {
			out = append(out, u)
		}
	}
	return out
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := &Graph{adj: make([][]int32, len(g.adj)), m: g.m}
	arena := make([]int32, 0, 2*g.m)
	for v, nb := range g.adj {
		start := len(arena)
		arena = append(arena, nb...)
		c.adj[v] = arena[start:len(arena):len(arena)]
	}
	return c
}

// Equal reports whether g and h have identical vertex counts and edge sets.
func (g *Graph) Equal(h *Graph) bool {
	if g.N() != h.N() || g.M() != h.M() {
		return false
	}
	for v, nb := range g.adj {
		if !slices.Equal(nb, h.adj[v]) {
			return false
		}
	}
	return true
}

// MinDegree returns the minimum degree (0 for the empty graph on 0 vertices).
func (g *Graph) MinDegree() int {
	if g.N() == 0 {
		return 0
	}
	min := g.Degree(0)
	for v := 1; v < g.N(); v++ {
		if d := len(g.adj[v]); d < min {
			min = d
		}
	}
	return min
}

// MaxDegree returns the maximum degree (0 for the empty graph on 0 vertices).
func (g *Graph) MaxDegree() int {
	max := 0
	for v := range g.adj {
		if d := len(g.adj[v]); d > max {
			max = d
		}
	}
	return max
}

// DegreeHistogram returns h where h[d] counts vertices of degree d.
func (g *Graph) DegreeHistogram() []int {
	h := make([]int, g.MaxDegree()+1)
	for v := range g.adj {
		h[len(g.adj[v])]++
	}
	return h
}

// String returns a short human-readable summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d}", g.N(), g.M())
}

func (g *Graph) check(v int) {
	if v < 0 || v >= len(g.adj) {
		panic(fmt.Sprintf("graph: vertex %d out of range [0,%d)", v, len(g.adj)))
	}
}
