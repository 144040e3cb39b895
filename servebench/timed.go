package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"time"
)

// timedResult is what one untraced run observed.
type timedResult struct {
	setups         []float64   // seconds, one per set-up
	outcomes       [][]outcome // per connection, in send order
	elapsed        time.Duration
	cpuTicks       int64 // server CPU over the timed window
	rssMB          float64
	before, after  *serverStats // around the timed window
	setupStoreHits uint64       // store hits during the last warm-up
	attempted, ok  int
	tailP          int
}

// digestPrefix is how many requests per connection a distinct workload's
// digest covers; every run sends at least these.
const digestPrefix = 20

// timedRun boots and warms a server setupRepeats times, then drives the
// last one through the timed window.
func timedRun(ctx context.Context, w *workload, bin, tmp string, window time.Duration) (*timedResult, error) {
	tm := &timedResult{}
	var srv *serverProc
	defer func() { srv.stop() }()
	for i := 0; i < setupRepeats; i++ {
		srv.stop()
		srv = nil
		start := time.Now()
		p, err := startServer(ctx, bin, tmp, w)
		if err != nil {
			return nil, err
		}
		srv = p
		pos := make([]int, w.conns)
		outs, _ := closedLoop(ctx, p.base, w.conns, time.Now(), 0, func(s int) (request, bool) {
			if pos[s] >= len(w.warmup[s]) {
				return request{}, false
			}
			pos[s]++
			return w.warmup[s][pos[s]-1], true
		})
		tm.setups = append(tm.setups, time.Since(start).Seconds())
		for _, st := range outs {
			for _, o := range st {
				if o.err != nil {
					return nil, fmt.Errorf("warm-up %s request (n=%d) failed: %w", o.req.class, o.req.n, o.err)
				}
			}
		}
	}

	var err error
	if tm.before, err = srv.stats(ctx); err != nil {
		return nil, err
	}
	tm.setupStoreHits = tm.before.Store.Hits
	gens := make([]func() request, w.conns)
	for s := range gens {
		gens[s] = w.stream(s)
	}
	start := time.Now()
	cpu0, err := srv.cpuTicks()
	if err != nil {
		return nil, err
	}
	tm.outcomes, tm.elapsed = closedLoop(ctx, srv.base, w.conns, start, window, func(s int) (request, bool) {
		return gens[s](), true
	})
	cpu1, err := srv.cpuTicks()
	if err != nil {
		return nil, err
	}
	tm.cpuTicks = cpu1 - cpu0
	if tm.after, err = srv.stats(ctx); err != nil {
		return nil, err
	}
	if tm.rssMB, err = srv.peakRSSMB(); err != nil {
		return nil, err
	}
	for _, st := range tm.outcomes {
		for _, o := range st {
			tm.attempted++
			if o.err == nil {
				tm.ok++
			}
		}
	}
	tm.tailP = tailPercentile(tm.ok)
	return tm, nil
}

// sent lists every request the timed window sent.
func (tm *timedResult) sent() []request {
	var out []request
	for _, st := range tm.outcomes {
		for _, o := range st {
			out = append(out, o.req)
		}
	}
	return out
}

// digestSet is the fixed request list the digest covers: the distinct
// requests of a hot or pooled workload, or the first digestPrefix
// requests of each connection of a distinct one.
func (tm *timedResult) digestSet(w *workload) []request {
	if w.hot != nil {
		return w.hot
	}
	var out []request
	for s := 0; s < w.conns; s++ {
		next := w.stream(s)
		for k := 0; k < digestPrefix; k++ {
			out = append(out, next())
		}
	}
	return out
}

// latencies returns the client latencies of the successful requests, ms.
func (tm *timedResult) latencies() []float64 {
	var xs []float64
	for _, st := range tm.outcomes {
		for _, o := range st {
			if o.err == nil {
				xs = append(xs, ms(o.latency))
			}
		}
	}
	return xs
}

// endToEnd computes the six end-to-end metrics.
func (tm *timedResult) endToEnd() map[string]metric {
	lat := tm.latencies()
	ok := float64(max(tm.ok, 1))
	return map[string]metric{
		"throughput_rps":        {float64(tm.ok) / tm.elapsed.Seconds(), "1/s"},
		"latency_p50_ms":        {quantile(lat, 0.5), "ms"},
		"latency_tail_ms":       {quantile(lat, float64(tm.tailP)/100), "ms"},
		"server_cpu_ms_per_req": {float64(tm.cpuTicks) * 1000 / clockTicksPerSecond / ok, "ms"},
		"server_peak_rss_mb":    {tm.rssMB, "MB"},
		"setup_s":               {quantile(tm.setups, 0.5), "s"},
	}
}

// gateReport is the correctness gate's verdict on one run.
type gateReport struct {
	Failed          int      `json:"failed"`
	TransportErrors int      `json:"transport_or_status_errors"`
	Divergent       int      `json:"divergent"`
	Violations      []string `json:"invariant_violations,omitempty"`
	Examples        []string `json:"examples,omitempty"`
}

func (g gateReport) correct() bool { return g.Failed == 0 && len(g.Violations) == 0 }

// checkOutcomes compares every timed response with the reference answer
// and asserts the workload's /stats invariants.
func checkOutcomes(w *workload, tm *timedResult, ref *reference) gateReport {
	var g gateReport
	note := func(format string, args ...any) {
		if len(g.Examples) < 5 {
			g.Examples = append(g.Examples, fmt.Sprintf(format, args...))
		}
	}
	var rowsRecomputed, rowsInvalidated uint64
	for _, st := range tm.outcomes {
		for _, o := range st {
			if o.err != nil {
				g.TransportErrors++
				note("%s n=%d: %v", o.req.class, o.req.n, o.err)
				continue
			}
			resp, err := o.decoded()
			var got []byte
			if err == nil {
				got, err = canonical(resp)
			}
			want := ref.answer(o.req)
			if err != nil || want == nil || !bytes.Equal(got, want) {
				g.Divergent++
				note("%s n=%d: response %.200s differs from reference %.200s", o.req.class, o.req.n, got, want)
				continue
			}
			rowsRecomputed += uintField(resp, "rows_recomputed")
			rowsInvalidated += uintField(resp, "rows_invalidated")
		}
	}
	g.Failed = g.TransportErrors + g.Divergent
	b, a := tm.before, tm.after
	ok := uint64(tm.ok)
	expect := func(what string, got, want uint64) {
		if got != want {
			g.Violations = append(g.Violations, fmt.Sprintf("%s: got %d, want %d", what, got, want))
		}
	}
	switch w.name {
	case "check-hot":
		expect("LRU hits during the timed window", a.Cache.Hits-b.Cache.Hits, ok)
		expect("LRU misses during the timed window", a.Cache.Misses-b.Cache.Misses, 0)
	case "check-distinct":
		expect("LRU misses during the timed window", a.Cache.Misses-b.Cache.Misses, ok)
		expect("journal appends during the timed window", a.Store.Appends-b.Store.Appends, ok)
		expect("journal append errors", a.Store.Errors, 0)
		expect("coalesced requests", a.Coalesce.Coalesced, 0)
	case "dynamics":
		expect("rows recomputed (/stats vs responses)", a.RowCache.RowsRecomputed-b.RowCache.RowsRecomputed, rowsRecomputed)
		expect("rows invalidated (/stats vs responses)", a.RowCache.RowsInvalidated-b.RowCache.RowsInvalidated, rowsInvalidated)
	}
	return g
}

// uintField reads a non-negative integer field of a decoded response
// (0 when absent, as the wire omits zero counters).
func uintField(m map[string]any, k string) uint64 {
	n, _ := m[k].(json.Number)
	x, _ := strconv.ParseUint(string(n), 10, 64)
	return x
}
