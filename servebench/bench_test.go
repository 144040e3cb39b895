package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/serve"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct{ samples, want int }{
		{5000, 99}, {1000, 99}, {999, 98}, {500, 98}, {200, 95}, {100, 90}, {20, 50}, {19, 0},
	} {
		if got := tailPercentile(c.samples); got != c.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", c.samples, got, c.want)
		}
		// The rule itself: at least 10 samples lie beyond the percentile.
		if p := tailPercentile(c.samples); p > 0 && float64(c.samples)*float64(100-p)/100 < 10 {
			t.Errorf("p%d of %d samples leaves fewer than 10 beyond it", p, c.samples)
		}
	}
}

func TestSelfTime(t *testing.T) {
	sp := func(a, b int) span { return span{start: time.Duration(a), end: time.Duration(b)} }
	parent := sp(0, 100)
	for _, c := range []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"no children", nil, 100},
		{"disjoint", []span{sp(10, 20), sp(30, 50)}, 70},
		{"overlapping counted once", []span{sp(10, 40), sp(30, 60)}, 50},
		{"nested", []span{sp(10, 90), sp(20, 30)}, 20},
		{"clipped to the parent", []span{sp(-10, 10), sp(95, 120)}, 85},
		{"outside the parent", []span{sp(200, 300)}, 100},
		{"covering", []span{sp(0, 100)}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if got := quantile(xs, 0.5); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantile(xs, 0.25); got != 2 {
		t.Errorf("q1 = %v, want 2", got)
	}
	if got := quantile([]float64{1, 2}, 0.5); got != 1.5 {
		t.Errorf("interpolated median = %v, want 1.5", got)
	}
}

// TestSparse6MatchesGraphio checks the benchmark's own encoder against
// the repository's decoder and encoder on random graphs, including the
// n = 2^k padding case.
func TestSparse6MatchesGraphio(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{2, 3, 4, 7, 8, 15, 16, 32, 33, 62, 63, 64, 100, 1025, 2047} {
		for trial := 0; trial < 5; trial++ {
			sg := pruferTree(rng, n, rng.Intn(n))
			enc := sparse6(sg)
			g, err := graphio.FromSparse6(enc)
			if err != nil {
				t.Fatalf("n=%d: decode %q: %v", n, enc, err)
			}
			want, err := graph.FromEdges(n, toEdges(sg))
			if err != nil {
				t.Fatal(err)
			}
			if !g.Equal(want) {
				t.Fatalf("n=%d: %q decodes to a different graph", n, enc)
			}
			if ref, _ := graphio.ToSparse6(want); ref != enc {
				t.Errorf("n=%d: encoding %q, graphio writes %q", n, enc, ref)
			}
		}
	}
}

func toEdges(g simpleGraph) []graph.Edge {
	out := make([]graph.Edge, len(g.edges))
	for i, e := range g.edges {
		out[i] = graph.NewEdge(int(e[0]), int(e[1]))
	}
	return out
}

// TestWorkloadsSeeded checks that a seed fixes every request byte and
// that another seed changes them.
func TestWorkloadsSeeded(t *testing.T) {
	for _, name := range workloadNames {
		a, b, c := head(t, name, 1), head(t, name, 1), head(t, name, 2)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 1 gave two different sequences", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave the same sequence", name)
		}
	}
}

func head(t *testing.T, name string, seed int64) [][]byte {
	t.Helper()
	w, err := newWorkload(name, seed, "..")
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, r := range traceSequence(w, 40) {
		out = append(out, r.body)
	}
	for _, conn := range w.warmup {
		for _, r := range conn {
			out = append(out, r.body)
		}
	}
	return out
}

// TestCheckHotFitsTheLRU pins the pitfall the hot set is sized against:
// more distinct keys than the server's 512-entry LRU would evict on every
// cycle and turn the hit workload into a miss workload. It also checks
// that a round sends every key and that about half of its requests carry
// the batched bit.
func TestCheckHotFitsTheLRU(t *testing.T) {
	w, err := newWorkload("check-hot", 1, "..")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(w.hot); n >= 512 || n < 256 {
		t.Errorf("hot set has %d keys, want 256..511", n)
	}
	round := w.params["round"].(int)
	next := w.stream(0)
	seen := map[string]bool{}
	batched := 0
	for k := 0; k < round; k++ {
		r := next()
		seen[string(r.body)] = true
		if r.batched {
			batched++
		}
	}
	if len(seen) != len(w.hot) {
		t.Errorf("a round sent %d of the %d hot keys", len(seen), len(w.hot))
	}
	if share := float64(batched) / float64(round); share < 0.4 || share > 0.6 {
		t.Errorf("%d of a round's %d requests batched, want about half", batched, round)
	}
}

// counts are the exact figures a run of the same sequence must repeat.
type counts struct {
	Hits, Misses, StoreHits, StoreAppends, Coalesced, RowsRecomputed, RowsInvalidated uint64
	Moves, Sweeps                                                                     []int
}

func replayCounts(t *testing.T, w *workload, n int) counts {
	t.Helper()
	ctx := context.Background()
	srv, err := configuredServer(ctx, w, "..", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var c counts
	for _, r := range traceSequence(w, n) {
		resp, err := call(ctx, srv, r)
		if err != nil {
			t.Fatal(err)
		}
		if d, ok := resp.(*serve.DynamicsResponse); ok {
			c.Moves = append(c.Moves, d.Moves)
			c.Sweeps = append(c.Sweeps, d.Sweeps)
		}
	}
	st := srv.Stats()
	c.Hits, c.Misses, c.Coalesced = st.Cache.Hits, st.Cache.Misses, st.Coalesce.Coalesced
	c.RowsRecomputed, c.RowsInvalidated = st.RowCache.RowsRecomputed, st.RowCache.RowsInvalidated
	if st.Store != nil {
		c.StoreHits, c.StoreAppends = st.Store.Hits, st.Store.Appends
	}
	return c
}

// TestCountsRepeat replays the head of each workload twice on fresh
// servers: hits, appends, moves, sweeps and rows must repeat exactly, and
// show each workload's designed invariant.
func TestCountsRepeat(t *testing.T) {
	for _, name := range workloadNames {
		w, err := newWorkload(name, 3, "..")
		if err != nil {
			t.Fatal(err)
		}
		n := map[string]int{"check-hot": 400, "check-distinct": 24, "dynamics": 40}[name]
		a, b := replayCounts(t, w, n), replayCounts(t, w, n)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: counts differ between two replays:\n%+v\n%+v", name, a, b)
		}
		warm := 0
		for _, conn := range w.warmup {
			warm += len(conn)
		}
		switch name {
		case "check-hot":
			if a.Hits != uint64(n) {
				t.Errorf("check-hot: %d LRU hits for %d requests after warm-up", a.Hits, n)
			}
		case "check-distinct":
			if a.Misses != uint64(n+warm) || a.StoreAppends != uint64(n+warm) || a.Coalesced != 0 {
				t.Errorf("check-distinct: %+v for %d distinct requests", a, n+warm)
			}
		case "dynamics":
			if a.RowsRecomputed == 0 || len(a.Moves) != n {
				t.Errorf("dynamics: %+v", a)
			}
		}
	}
}

// TestShortRuns runs every workload end to end for one second against a
// freshly built server, traced, and requires the correctness gate to
// pass and every metric BENCHMARK.json declares to be reported with its
// unit.
func TestShortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the server")
	}
	spec := readSpec(t)
	bin := filepath.Join(t.TempDir(), "bncg")
	build := exec.Command("go", "build", "-o", bin, "./cmd/bncg")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build bncg: %v\n%s", err, out)
	}
	for _, name := range workloadNames {
		res, detail, err := run(name, 1, time.Second, true, "..", bin)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d gate=%+v", name, res.Correct, res.Attempted, res.Failed, detail["gate"])
		}
		if d, _ := detail["digest"].(string); len(d) != 64 {
			t.Errorf("%s: digest %q", name, d)
		}
		e2e, _ := detail["end_to_end"].(map[string]metric)
		sameMetrics(t, name+" end_to_end", e2e, spec.EndToEnd)
		sameMetrics(t, name+" per_layer", res.Metrics, spec.PerLayer)
		for k, m := range e2e {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end %s = %v, want > 0", name, k, m.Value)
			}
		}
	}
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecNamesWorkloads keeps BENCHMARK.json and the code in step.
func TestSpecNamesWorkloads(t *testing.T) {
	spec := readSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", names, workloadNames)
	}
}

func sameMetrics(t *testing.T, what string, got map[string]metric, want []specMetric) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics reported, %d declared", what, len(got), len(want))
	}
	for _, m := range want {
		g, ok := got[m.Name]
		if !ok {
			t.Errorf("%s: %s not reported", what, m.Name)
		} else if g.Unit != m.Unit {
			t.Errorf("%s: %s in %q, declared %q", what, m.Name, g.Unit, m.Unit)
		}
	}
}
