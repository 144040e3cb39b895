package graph

import (
	"sort"

	"repro/internal/par"
)

// BFS returns the distances (in hops) from src to every vertex.
// Unreachable vertices get Unreachable (-1).
func (g *Graph) BFS(src int) []int32 {
	dist := make([]int32, g.N())
	queue := make([]int, 0, g.N())
	g.BFSInto(src, dist, queue)
	return dist
}

// BFSInto runs a breadth-first search from src writing distances into dist
// (which must have length g.N()); queue is scratch space whose backing array
// is reused when large enough. It returns the number of reached vertices
// (including src). Unreachable entries are set to Unreachable.
func (g *Graph) BFSInto(src int, dist []int32, queue []int) int {
	g.check(src)
	if len(dist) != g.N() {
		panic("graph: BFSInto dist length mismatch")
	}
	for i := range dist {
		dist[i] = Unreachable
	}
	queue = queue[:0]
	queue = append(queue, src)
	dist[src] = 0
	reached := 1
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		dv := dist[v]
		for _, w := range g.adj[v] {
			u := int(w)
			if dist[u] == Unreachable {
				dist[u] = dv + 1
				queue = append(queue, u)
				reached++
			}
		}
	}
	return reached
}

// BFSTree runs a breadth-first search from src returning parent pointers
// and distances. parent[src] = -1, and parent[u] = -1 for unreachable u.
// The Lemma 2 proof swaps a vertex's BFS-tree parent edge for an edge to
// the root; this provides that tree.
func (g *Graph) BFSTree(src int) (parent, dist []int32) {
	g.check(src)
	n := g.N()
	parent = make([]int32, n)
	dist = make([]int32, n)
	for i := range parent {
		parent[i] = -1
		dist[i] = Unreachable
	}
	queue := make([]int, 0, n)
	queue = append(queue, src)
	dist[src] = 0
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, w := range g.adj[v] {
			u := int(w)
			if dist[u] == Unreachable {
				dist[u] = dist[v] + 1
				parent[u] = int32(v)
				queue = append(queue, u)
			}
		}
	}
	return parent, dist
}

// SumOfDistances returns the sum of distances from v to all reachable
// vertices and the number of reached vertices (including v itself).
// In the sum version of the game this is the usage cost of v when the
// graph is connected.
func (g *Graph) SumOfDistances(v int) (sum int64, reached int) {
	dist := make([]int32, g.N())
	queue := make([]int, 0, g.N())
	reached = g.BFSInto(v, dist, queue)
	for _, d := range dist {
		if d > 0 {
			sum += int64(d)
		}
	}
	return sum, reached
}

// Eccentricity returns the local diameter of v — the maximum distance from
// v to any other vertex — and ok=false if some vertex is unreachable.
func (g *Graph) Eccentricity(v int) (ecc int, ok bool) {
	dist := make([]int32, g.N())
	queue := make([]int, 0, g.N())
	reached := g.BFSInto(v, dist, queue)
	if reached != g.N() {
		return 0, false
	}
	for _, d := range dist {
		if int(d) > ecc {
			ecc = int(d)
		}
	}
	return ecc, true
}

// IsConnected reports whether g is connected. The empty graph and the
// single-vertex graph are connected.
func (g *Graph) IsConnected() bool {
	if g.N() <= 1 {
		return true
	}
	dist := make([]int32, g.N())
	queue := make([]int, 0, g.N())
	return g.BFSInto(0, dist, queue) == g.N()
}

// ConnectedComponents returns the vertex sets of the connected components,
// each sorted increasingly, ordered by smallest vertex.
func (g *Graph) ConnectedComponents() [][]int {
	seen := make([]bool, g.N())
	var comps [][]int
	queue := make([]int, 0, g.N())
	for s := 0; s < g.N(); s++ {
		if seen[s] {
			continue
		}
		queue = queue[:0]
		queue = append(queue, s)
		seen[s] = true
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			for _, w := range g.adj[v] {
				u := int(w)
				if !seen[u] {
					seen[u] = true
					queue = append(queue, u)
				}
			}
		}
		comp := make([]int, len(queue))
		copy(comp, queue)
		sortInts(comp)
		comps = append(comps, comp)
	}
	return comps
}

// AllPairs computes all-pairs shortest paths by one BFS per source.
// Rows of the result are indexed by source vertex.
func (g *Graph) AllPairs() *Matrix {
	return g.allPairs(1)
}

// AllPairsParallel computes all-pairs shortest paths with the given number
// of workers (<=0 means par.DefaultWorkers).
func (g *Graph) AllPairsParallel(workers int) *Matrix {
	if workers <= 0 {
		workers = par.DefaultWorkers
	}
	return g.allPairs(workers)
}

func (g *Graph) allPairs(workers int) *Matrix {
	n := g.N()
	if n == 0 {
		return NewMatrix(0)
	}
	// Freeze to a CSR snapshot once: CSR BFS avoids map iteration, which
	// dominates the n BFS passes below.
	return g.Freeze().AllPairs(workers)
}

func sortInts(a []int) {
	sort.Ints(a)
}
