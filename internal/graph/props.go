package graph

// Diameter returns the diameter of g (the maximum over vertices of the
// local diameter). ok is false when g is disconnected or has no vertices;
// in that case diam is the largest finite eccentricity found.
func (g *Graph) Diameter() (diam int, ok bool) {
	n := g.N()
	if n == 0 {
		return 0, false
	}
	ok = true
	dist := make([]int32, n)
	queue := make([]int, 0, n)
	for v := 0; v < n; v++ {
		reached := g.BFSInto(v, dist, queue)
		if reached != n {
			ok = false
		}
		for _, d := range dist {
			if int(d) > diam {
				diam = int(d)
			}
		}
	}
	return diam, ok
}

// Radius returns the radius of g (minimum eccentricity) and ok=false if g
// is disconnected or empty.
func (g *Graph) Radius() (radius int, ok bool) {
	n := g.N()
	if n == 0 {
		return 0, false
	}
	radius = int(^uint(0) >> 1)
	dist := make([]int32, n)
	queue := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if g.BFSInto(v, dist, queue) != n {
			return 0, false
		}
		ecc := 0
		for _, d := range dist {
			if int(d) > ecc {
				ecc = int(d)
			}
		}
		if ecc < radius {
			radius = ecc
		}
	}
	return radius, true
}

// IsTree reports whether g is connected and has exactly n-1 edges.
func (g *Graph) IsTree() bool {
	return g.N() >= 1 && g.M() == g.N()-1 && g.IsConnected()
}

// Girth returns the length of a shortest cycle, with ok=false when g is
// acyclic (a forest). It runs the standard O(n·m) BFS sweep: the minimum of
// d(u)+d(x)+1 over non-tree edges ux across all BFS roots is exactly the
// girth.
func (g *Graph) Girth() (girth int, ok bool) {
	n := g.N()
	best := -1
	dist := make([]int32, n)
	parent := make([]int32, n)
	queue := make([]int, 0, n)
	for s := 0; s < n; s++ {
		for i := range dist {
			dist[i] = Unreachable
			parent[i] = -1
		}
		queue = queue[:0]
		queue = append(queue, s)
		dist[s] = 0
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			if best >= 0 && int(dist[v])*2 >= best {
				// No shorter cycle can be completed from this depth.
				break
			}
			for _, w := range g.adj[v] {
				u := int(w)
				if dist[u] == Unreachable {
					dist[u] = dist[v] + 1
					parent[u] = int32(v)
					queue = append(queue, u)
				} else if int32(u) != parent[v] && int32(v) != parent[u] {
					c := int(dist[u] + dist[v] + 1)
					if best < 0 || c < best {
						best = c
					}
				}
			}
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// CutVertices returns the articulation points of g in increasing order,
// computed with an iterative Tarjan lowlink DFS. Lemma 3 of the paper
// constrains how components hang off cut vertices in max equilibria.
func (g *Graph) CutVertices() []int {
	n := g.N()
	num := make([]int32, n) // DFS numbers, 0 = unvisited
	low := make([]int32, n)
	parent := make([]int32, n)
	isCut := make([]bool, n)
	for i := range parent {
		parent[i] = -1
	}
	var counter int32

	type frame struct {
		v     int
		nbs   []int
		idx   int
		child int // children in DFS tree (for root rule)
	}
	var stack []frame
	var nbBuf []int

	for s := 0; s < n; s++ {
		if num[s] != 0 {
			continue
		}
		counter++
		num[s] = counter
		low[s] = counter
		nbBuf = g.AppendNeighbors(nbBuf[:0], s)
		root := frame{v: s, nbs: append([]int(nil), nbBuf...)}
		stack = append(stack[:0], root)
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.idx < len(f.nbs) {
				u := f.nbs[f.idx]
				f.idx++
				if num[u] == 0 {
					parent[u] = int32(f.v)
					f.child++
					counter++
					num[u] = counter
					low[u] = counter
					nbBuf = g.AppendNeighbors(nbBuf[:0], u)
					stack = append(stack, frame{v: u, nbs: append([]int(nil), nbBuf...)})
				} else if int32(u) != parent[f.v] && num[u] < low[f.v] {
					low[f.v] = num[u]
				}
				continue
			}
			// Post-order: propagate lowlink to parent.
			stack = stack[:len(stack)-1]
			if len(stack) > 0 {
				p := &stack[len(stack)-1]
				if low[f.v] < low[p.v] {
					low[p.v] = low[f.v]
				}
				if parent[f.v] == int32(p.v) && low[f.v] >= num[p.v] && parent[p.v] != -1 {
					isCut[p.v] = true
				}
			}
		}
		// Root rule: the DFS root is a cut vertex iff it has >= 2 children.
		if rootChildren(parent, s, n) >= 2 {
			isCut[s] = true
		}
	}
	var out []int
	for v, c := range isCut {
		if c {
			out = append(out, v)
		}
	}
	return out
}

func rootChildren(parent []int32, root, n int) int {
	c := 0
	for v := 0; v < n; v++ {
		if parent[v] == int32(root) {
			c++
		}
	}
	return c
}

// Power returns the x-th power graph G^x on the same vertex set: u and v
// are adjacent in G^x iff 1 <= d_G(u,v) <= x. Distances in G^x equal
// ceil(d_G(u,v)/x) — the coalescing step of Theorem 13. x must be >= 1.
func (g *Graph) Power(x int) *Graph {
	if x < 1 {
		panic("graph: Power requires x >= 1")
	}
	n := g.N()
	p := New(n)
	dist := make([]int32, n)
	queue := make([]int, 0, n)
	for v := 0; v < n; v++ {
		// Bounded BFS would suffice; a full BFS keeps the code simple and
		// the cost is the same order for the dense outputs we build.
		g.BFSInto(v, dist, queue)
		for u := v + 1; u < n; u++ {
			if d := dist[u]; d != Unreachable && int(d) <= x {
				p.AddEdge(v, u)
			}
		}
	}
	return p
}

// NeighborhoodsIndependent reports whether the neighborhood of every vertex
// is an independent set, i.e. the graph is triangle-free (equivalently,
// girth >= 4 when a cycle exists). The Theorem 5 proof uses this check.
func (g *Graph) NeighborhoodsIndependent() bool {
	for v := range g.adj {
		nbs := g.Neighbors(v)
		for i := 0; i < len(nbs); i++ {
			for j := i + 1; j < len(nbs); j++ {
				if g.HasEdge(nbs[i], nbs[j]) {
					return false
				}
			}
		}
	}
	return true
}
