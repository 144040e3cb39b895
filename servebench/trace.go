package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	"repro/internal/game"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/iso"
	"repro/internal/serve"
)

// tracer records spans in memory; with on false the same calls run
// without recording, which is what trace.overhead_ratio compares against.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
}

func (t *tracer) begin(name string, req, parent int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{name: name, req: req, parent: parent, start: time.Since(t.epoch)})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if i >= 0 {
		t.spans[i].end = time.Since(t.epoch)
	}
}

// Traced replay sizes: the first traceRequests requests of the timed
// sequence (split evenly over the connections), and the kernel probes'
// graphs and agents. Each request runs the configured and a cache-less
// Server call, so a pass costs about twice its share of the timed run.
var traceRequests = map[string]int{"check-hot": 400, "check-distinct": 100, "dynamics": 80}

const (
	probeGraphs = 8
	probeAgents = 128
	probeMaxN   = 256
)

// tracedRequest is what one request of the traced pass produced.
type tracedRequest struct {
	r        request
	hit      bool // the configured server answered from its cache
	stable   bool
	batched  bool
	moves    int
	final    *graph.Graph
	alloc    uint64 // bytes allocated during the configured call
	gcCycles uint64
}

var rtSamples = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}

func readRuntime() (alloc, gc uint64) {
	metrics.Read(rtSamples)
	return rtSamples[0].Value.Uint64(), rtSamples[1].Value.Uint64()
}

// traceRun replays the head of the timed sequence in process, once with
// spans and once without, then runs the kernel probes, and derives the
// per-layer metrics. The counts come from the untraced run's /stats and
// responses; only times come from here.
//
// info reports the replay's size and the median self time of its request
// roots: what the benchmark itself spends per request outside the layer
// calls (request unmarshalling, runtime/metrics reads, span bookkeeping).
func traceRun(ctx context.Context, w *workload, tm *timedResult, ref *reference, root, tmp string) (m map[string]metric, info map[string]any, err error) {
	reqs := traceSequence(w, traceRequests[w.name])
	_, offWall, err := tracePass(ctx, w, reqs, ref, root, tmp, &tracer{})
	if err != nil {
		return nil, nil, err
	}
	on := &tracer{on: true}
	traced, onWall, err := tracePass(ctx, w, reqs, ref, root, tmp, on)
	if err != nil {
		return nil, nil, err
	}
	probeStart := len(on.spans)
	if err := kernelProbes(traced, on); err != nil {
		return nil, nil, err
	}
	m = layerMetrics(w, tm, ref, traced, on.spans[:probeStart], on.spans[probeStart:])
	m["trace.overhead_ratio"] = metric{onWall.Seconds()/offWall.Seconds() - 1, "ratio"}
	info = map[string]any{
		"requests":         len(reqs),
		"spans":            len(on.spans),
		"root_self_ms_p50": quantile(rootSelfTimes(on.spans[:probeStart]), 0.5),
	}
	return m, info, nil
}

// rootSelfTimes returns each root span's self time, in ms.
func rootSelfTimes(spans []span) []float64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	var out []float64
	for i, s := range spans {
		if s.parent < 0 {
			out = append(out, ms(selfTime(s, children[i])))
		}
	}
	return out
}

// traceSequence interleaves the connections' timed streams, n requests in
// all: the same bytes, in the order each connection sent them.
func traceSequence(w *workload, n int) []request {
	gens := make([]func() request, w.conns)
	for s := range gens {
		gens[s] = w.stream(s)
	}
	out := make([]request, 0, n)
	for len(out) < n {
		out = append(out, gens[len(out)%w.conns]())
	}
	return out
}

// configuredServer builds an in-process Server configured like the timed
// `bncg serve` process, with a fresh journal, and sends it the warm-up.
func configuredServer(ctx context.Context, w *workload, root, tmp string) (*serve.Server, error) {
	dir, err := os.MkdirTemp(tmp, "trace-")
	if err != nil {
		return nil, err
	}
	cfg := serve.Config{MaxWorkers: 2}
	switch w.name {
	case "check-hot":
		cfg.StorePath = filepath.Join(dir, "journal.jsonl")
		cfg.StoreSeed = filepath.Join(root, "testdata", "atlas")
	case "check-distinct":
		cfg.StorePath = filepath.Join(dir, "journal.jsonl")
	}
	srv, err := serve.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	for _, conn := range w.warmup {
		for _, r := range conn {
			if _, err := call(ctx, srv, r); err != nil {
				srv.Close()
				return nil, fmt.Errorf("traced warm-up: %w", err)
			}
		}
	}
	return srv, nil
}

// tracePass runs reqs against a fresh configured server and the
// cache-less reference server, with a root span per request and a child
// span around each public call on the request's bytes.
func tracePass(ctx context.Context, w *workload, reqs []request, ref *reference, root, tmp string, tr *tracer) ([]tracedRequest, time.Duration, error) {
	srv, err := configuredServer(ctx, w, root, tmp)
	if err != nil {
		return nil, 0, err
	}
	defer srv.Close()
	out := make([]tracedRequest, 0, len(reqs))
	tr.epoch = time.Now()
	for id, r := range reqs {
		rt := tr.begin("request", id, -1)
		t := tracedRequest{r: r}
		var gdto serve.GraphDTO
		if r.path == pathCheck {
			var req serve.CheckRequest
			if err := json.Unmarshal(r.body, &req); err != nil {
				return nil, 0, err
			}
			gdto = req.Graph
		} else {
			var req serve.DynamicsRequest
			if err := json.Unmarshal(r.body, &req); err != nil {
				return nil, 0, err
			}
			gdto = req.Graph
		}
		i := tr.begin("graphio.decode", id, rt)
		g, err := gdto.Decode()
		tr.end(i)
		if err != nil {
			return nil, 0, err
		}
		i = tr.begin("graphio.encode", id, rt)
		_, err = graphio.ToSparse6(g)
		tr.end(i)
		if err != nil {
			return nil, 0, err
		}
		i = tr.begin("iso.certificate", id, rt)
		iso.Certificate(g)
		tr.end(i)

		a0, g0 := readRuntime()
		i = tr.begin("serve.configured", id, rt)
		resp, err := call(ctx, srv, r)
		tr.end(i)
		a1, g1 := readRuntime()
		if err != nil {
			return nil, 0, err
		}
		t.alloc, t.gcCycles = a1-a0, g1-g0
		i = tr.begin("serve.cacheless", id, rt)
		_, err = call(ctx, ref.srv, r)
		tr.end(i)
		if err != nil {
			return nil, 0, err
		}
		switch v := resp.(type) {
		case *serve.CheckResponse:
			t.hit, t.stable, t.batched = v.Cached, v.Stable, r.batched
		case *serve.DynamicsResponse:
			t.moves = v.Moves
			final, err := v.Final.Decode()
			if err != nil {
				return nil, 0, err
			}
			if v.Converged {
				t.final = final
			}
			i = tr.begin("graphio.encode_final", id, rt)
			_, err = graphio.ToSparse6(final)
			tr.end(i)
			if err != nil {
				return nil, 0, err
			}
		}
		tr.end(rt)
		out = append(out, t)
	}
	return out, time.Since(tr.epoch), nil
}

// kernelProbes times the session and BFS kernels on the traced
// requests' graphs, each probe graph under its own root span: Model.New,
// Instance.BestMove per agent, Instance.FindImprovement (on the converged
// graph for a trajectory, on the request graph for a check), and
// Frozen.BFSInto per source.
func kernelProbes(traced []tracedRequest, tr *tracer) error {
	seen := map[string]bool{}
	probed := 0
	for _, t := range traced {
		if probed == probeGraphs {
			break
		}
		if seen[string(t.r.body)] {
			continue
		}
		seen[string(t.r.body)] = true
		probed++
		id := -1 - probed
		var req serve.CheckRequest // the graph, model and objective fields are shared with dynamics
		if err := json.Unmarshal(t.r.body, &req); err != nil {
			return err
		}
		g, err := req.Graph.Decode()
		if err != nil {
			return err
		}
		rt := tr.begin("probe", id, -1)
		if g.N() <= probeMaxN {
			model, err := req.Model.Build(g.N())
			if err != nil {
				return err
			}
			obj := game.Sum
			if req.Objective == "max" {
				obj = game.Max
			}
			workers := req.Workers
			if workers <= 0 {
				workers = 2
			}
			i := tr.begin("game.new", id, rt)
			inst := model.New(g, workers)
			tr.end(i)
			for v := 0; v < min(g.N(), probeAgents); v++ {
				i = tr.begin("game.best_move", id, rt)
				inst.BestMove(v, obj)
				tr.end(i)
			}
			closeInstance(inst)
			sweep := g
			if t.final != nil {
				sweep = t.final
			}
			if t.r.path == pathCheck || t.final != nil {
				inst = model.New(sweep, workers)
				i = tr.begin("game.find_improvement", id, rt)
				inst.FindImprovement(obj)
				tr.end(i)
				closeInstance(inst)
			}
		}
		f := g.Freeze()
		dist := make([]int32, g.N())
		queue := make([]int32, g.N())
		for src := 0; src < g.N(); src++ {
			i := tr.begin("graph.bfs_row", id, rt)
			f.BFSInto(src, dist, queue)
			tr.end(i)
		}
		tr.end(rt)
	}
	return nil
}

// closeInstance returns an instance's pooled scratch where it has any.
func closeInstance(inst game.Instance) {
	if c, ok := inst.(interface{ Close() }); ok {
		c.Close()
	}
}
