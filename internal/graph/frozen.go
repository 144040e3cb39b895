package graph

import (
	"repro/internal/par"
)

// Frozen is an immutable compressed-sparse-row snapshot of a graph. BFS
// over the CSR layout avoids per-vertex map iteration and is markedly
// faster, so the all-pairs sweeps behind the equilibrium checkers freeze
// the graph once and fan BFS out over the snapshot. Mutations must go
// through the original Graph; re-freeze after changing it.
type Frozen struct {
	n      int
	offset []int32 // n+1 offsets into neigh
	neigh  []int32 // concatenated adjacency, sorted per vertex
}

// Freeze builds a CSR snapshot of g.
func (g *Graph) Freeze() *Frozen {
	n := g.N()
	f := &Frozen{
		n:      n,
		offset: make([]int32, n+1),
		neigh:  make([]int32, 0, 2*g.M()),
	}
	for v := 0; v < n; v++ {
		f.offset[v] = int32(len(f.neigh))
		f.neigh = append(f.neigh, g.adj[v]...)
	}
	f.offset[n] = int32(len(f.neigh))
	return f
}

// N returns the number of vertices.
func (f *Frozen) N() int { return f.n }

// M returns the number of edges.
func (f *Frozen) M() int { return len(f.neigh) / 2 }

// Degree returns the degree of v.
func (f *Frozen) Degree(v int) int { return int(f.offset[v+1] - f.offset[v]) }

// Neighbors returns the sorted adjacency slice of v (shared storage; do
// not modify).
func (f *Frozen) Neighbors(v int) []int32 {
	return f.neigh[f.offset[v]:f.offset[v+1]]
}

// BFSInto runs a breadth-first search from src over the CSR layout,
// writing distances into dist (length N) and reusing queue storage.
// It returns the number of reached vertices.
func (f *Frozen) BFSInto(src int, dist []int32, queue []int32) int {
	if len(dist) != f.n {
		panic("graph: Frozen.BFSInto dist length mismatch")
	}
	for i := range dist {
		dist[i] = Unreachable
	}
	queue = queue[:0]
	queue = append(queue, int32(src))
	dist[src] = 0
	reached := 1
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		dv := dist[v] + 1
		for _, u := range f.neigh[f.offset[v]:f.offset[v+1]] {
			if dist[u] == Unreachable {
				dist[u] = dv
				queue = append(queue, u)
				reached++
			}
		}
	}
	return reached
}

// BFSSkipVertex runs a breadth-first search from src over the CSR layout of
// the vertex-deleted subgraph G − skip: the skipped vertex is never visited
// and keeps distance Unreachable. It panics if src == skip. The swap-pricing
// engine uses these rows — a candidate endpoint's distances avoiding the
// deviator — to price every swap of the deviator from a single search.
func (f *Frozen) BFSSkipVertex(src, skip int, dist []int32, queue []int32) int {
	if len(dist) != f.n {
		panic("graph: Frozen.BFSSkipVertex dist length mismatch")
	}
	if src == skip {
		panic("graph: Frozen.BFSSkipVertex src == skip")
	}
	for i := range dist {
		dist[i] = Unreachable
	}
	queue = queue[:0]
	queue = append(queue, int32(src))
	dist[src] = 0
	skip32 := int32(skip)
	reached := 1
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		dv := dist[v] + 1
		for _, u := range f.neigh[f.offset[v]:f.offset[v+1]] {
			if u != skip32 && dist[u] == Unreachable {
				dist[u] = dv
				queue = append(queue, u)
				reached++
			}
		}
	}
	return reached
}

// BFSSkipEdge runs a breadth-first search from src over the CSR layout of
// the edge-deleted subgraph G − ab. The edge need not exist; a non-edge
// degenerates to a plain BFS. Deletion pricing and the deletion-critical
// scan use these rows without cloning or mutating the graph.
func (f *Frozen) BFSSkipEdge(src, a, b int, dist []int32, queue []int32) int {
	if len(dist) != f.n {
		panic("graph: Frozen.BFSSkipEdge dist length mismatch")
	}
	for i := range dist {
		dist[i] = Unreachable
	}
	queue = queue[:0]
	queue = append(queue, int32(src))
	dist[src] = 0
	a32, b32 := int32(a), int32(b)
	reached := 1
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		dv := dist[v] + 1
		for _, u := range f.neigh[f.offset[v]:f.offset[v+1]] {
			if (v == a32 && u == b32) || (v == b32 && u == a32) {
				continue
			}
			if dist[u] == Unreachable {
				dist[u] = dv
				queue = append(queue, u)
				reached++
			}
		}
	}
	return reached
}

// HasEdge reports whether edge uv is present in the snapshot, by binary
// search over u's sorted adjacency.
func (f *Frozen) HasEdge(u, v int) bool {
	if u < 0 || v < 0 || u >= f.n || v >= f.n {
		return false
	}
	nb := f.neigh[f.offset[u]:f.offset[u+1]]
	lo, hi := 0, len(nb)
	for lo < hi {
		mid := (lo + hi) / 2
		if nb[mid] < int32(v) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(nb) && nb[lo] == int32(v)
}

// AllPairs computes all-pairs shortest paths over the snapshot with the
// given number of workers (<= 0 means par.DefaultWorkers).
func (f *Frozen) AllPairs(workers int) *Matrix {
	m := NewMatrix(f.n)
	if f.n == 0 {
		return m
	}
	if workers <= 0 {
		workers = par.DefaultWorkers
	}
	if workers == 1 {
		queue := make([]int32, 0, f.n)
		for v := 0; v < f.n; v++ {
			f.BFSInto(v, m.Row(v), queue)
		}
		return m
	}
	var next par.Counter
	par.Workers(workers, func(int) {
		queue := make([]int32, 0, f.n)
		for v := next.Next(); v < f.n; v = next.Next() {
			f.BFSInto(v, m.Row(v), queue)
		}
	})
	return m
}

// IsBipartite reports whether g is bipartite, returning a 2-coloring
// (colors 0/1; unreachable vertices get color 0) when it is.
func (g *Graph) IsBipartite() (bool, []int8) {
	n := g.N()
	color := make([]int8, n)
	seen := make([]bool, n)
	queue := make([]int, 0, n)
	for s := 0; s < n; s++ {
		if seen[s] {
			continue
		}
		seen[s] = true
		queue = queue[:0]
		queue = append(queue, s)
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			for _, w := range g.adj[v] {
				u := int(w)
				if !seen[u] {
					seen[u] = true
					color[u] = 1 - color[v]
					queue = append(queue, u)
				} else if color[u] == color[v] {
					return false, nil
				}
			}
		}
	}
	return true, color
}
