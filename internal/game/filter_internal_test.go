package game

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/constructions"
	"repro/internal/graph"
	"repro/internal/pricing"
)

// countingSnapshot counts every BFS pass a scan pays through its
// snapshot: endpoint and verification BFS, dropped-edge and landmark rows,
// and shared rows built on first touch.
type countingSnapshot struct {
	pricing.Snapshot
	bfs atomic.Int64
}

func (c *countingSnapshot) BFSInto(src int, dist, queue []int32) int {
	c.bfs.Add(1)
	return c.Snapshot.BFSInto(src, dist, queue)
}

func (c *countingSnapshot) BFSSkipVertex(src, skip int, dist, queue []int32) int {
	c.bfs.Add(1)
	return c.Snapshot.BFSSkipVertex(src, skip, dist, queue)
}

func (c *countingSnapshot) BFSSkipEdge(src, a, b int, dist, queue []int32) int {
	c.bfs.Add(1)
	return c.Snapshot.BFSSkipEdge(src, a, b, dist, queue)
}

// spiderLeafFirst is Spider(1023 legs of 2) under a seeded random
// relabeling with a leaf moved to label 0, the first agent a sweep scans.
// With seed 28 the leaf's own middle vertex sits at label 417, the first
// other middle vertex at label 3 and the hub at label 1183: under max the
// leaf's only improving swap is onto the hub, so an unfiltered scan pays
// one BFS for each of the 1,181 endpoints before it.
func spiderLeafFirst() *graph.Graph {
	src := constructions.Spider(1023, 2)
	n := src.N()
	perm := rand.New(rand.NewSource(28)).Perm(n)
	for v, p := range perm {
		if p == 0 {
			perm[v], perm[2] = perm[2], 0 // vertex 2 is a leaf
			break
		}
	}
	g := graph.New(n)
	for _, e := range src.Edges() {
		g.AddEdge(perm[e.U], perm[e.V])
	}
	return g
}

// TestCandidateFiltersSpiderLeafFirst pins what the exact candidate
// filters save on the spider with a leaf first: the per-agent max scan
// (far-set landmarks), and the one-shot batched scans under max (landmarks
// in front of first-touch shared rows) and sum (first-touch rows alone)
// each certify agent 0's witness for at most 16 BFS passes and rows in
// all. Without the filters the max scans pay a BFS or a shared row for
// every endpoint before the hub, and the eager batched pass built all
// 2,047 rows up front. The witness must equal the Naive instance's.
func TestCandidateFiltersSpiderLeafFirst(t *testing.T) {
	g := spiderLeafFirst()
	f := g.Freeze()
	eng := pricing.Shared(1)
	for _, tc := range []struct {
		name    string
		obj     Objective
		batched bool
	}{
		{"per-agent max", Max, false},
		{"first-touch batched max", Max, true},
		{"first-touch batched sum", Sum, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			view := &countingSnapshot{Snapshot: f}
			var rows rowLookup
			if tc.batched {
				rows = newFirstTouchRows(eng, view).row
			}
			viol, err := swapScan(nil, eng, view, func(v int) *pricing.Scan { return eng.NewScan(view, v) },
				tc.obj, false, rows)
			if err != nil {
				t.Fatal(err)
			}
			m, oldCost, newCost, ok := Swap{}.Naive(g.Clone(), 1).FirstImproving(0, tc.obj)
			if !ok {
				t.Fatal("naive scan finds no improving move for the leaf")
			}
			want := &Violation{Kind: SwapImproves, Move: m, Agent: 0, OldCost: oldCost, NewCost: newCost}
			if viol == nil || *viol != *want {
				t.Fatalf("witness %v, want %v", viol, want)
			}
			if got := view.bfs.Load(); got > 16 {
				t.Errorf("paid %d BFS passes and rows, want ≤ 16", got)
			}
			t.Logf("witness %v for %d BFS passes and rows", viol, view.bfs.Load())
		})
	}
}

// TestFirstTouchRowsConcurrentReaders races workers on the first touch of
// the same shared rows: every reader must get the complete row d_G(w,·),
// whichever racer published it. Meaningful under -race.
func TestFirstTouchRowsConcurrentReaders(t *testing.T) {
	g := internalFuzzGraph(64, 5)
	f := g.Freeze()
	n := g.N()
	want := make([][]int32, n)
	for w := range want {
		want[w] = g.BFS(w)
	}
	for _, workers := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			table := newFirstTouchRows(pricing.Shared(workers), f)
			var built atomic.Int64
			var wg sync.WaitGroup
			start := make(chan struct{})
			errs := make(chan error, workers)
			for k := 0; k < workers; k++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					for w := 0; w < n; w++ {
						row, b := table.row(w)
						if b {
							built.Add(1)
						}
						for x, d := range row {
							if d != want[w][x] {
								errs <- fmt.Errorf("row %d[%d] = %d, want %d", w, x, d, want[w][x])
								return
							}
						}
					}
				}()
			}
			close(start)
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if b := built.Load(); b < int64(n) || b > int64(workers*n) {
				t.Fatalf("%d row builds for %d rows and %d workers", b, n, workers)
			}
		})
	}
}
