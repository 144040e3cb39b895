package main

import (
	"encoding/json"
	"time"
)

// layerMetrics derives the per-layer metrics. Times come from the traced
// pass (requests) and the kernel probes; counts come from the untraced
// run's /stats deltas and responses and from the reference answers. A
// metric that does not apply to the workload reads 0.
func layerMetrics(w *workload, tm *timedResult, ref *reference, traced []tracedRequest, spans, probes []span) map[string]metric {
	per := make([]map[string]time.Duration, len(traced))
	for i := range per {
		per[i] = map[string]time.Duration{}
	}
	for _, s := range spans {
		if s.parent >= 0 {
			per[s.req][s.name] += s.dur()
		}
	}
	var (
		handler, decode, encode, cert, self, run        []float64
		engStable, engUnstable, engBatched, engPerAgent []float64
		certSum, checkHandlerSum, engineSum, runSum     time.Duration
		alloc, gcs                                      uint64
		moves                                           int
	)
	for i, t := range traced {
		p := per[i]
		cfg, cl := p["serve.configured"], p["serve.cacheless"]
		dec, enc, ct := p["graphio.decode"], p["graphio.encode"], p["iso.certificate"]
		handler = append(handler, ms(cfg))
		decode = append(decode, ms(dec))
		encode = append(encode, ms(enc))
		cert = append(cert, ms(ct))
		alloc += t.alloc
		gcs += t.gcCycles
		if t.r.path != pathCheck {
			// A trajectory: the cache-less call minus its graphio work is
			// the session path.
			r := cl - dec - p["graphio.encode_final"]
			run = append(run, ms(r))
			runSum += r
			moves += t.moves
			self = append(self, ms(cfg-cl))
			continue
		}
		// The cache-less call decodes, encodes, certifies and then runs
		// the engine; what it spends beyond the three graph calls is the
		// engine's.
		engine := max(cl-dec-enc-ct, 0)
		certSum += ct
		checkHandlerSum += cfg
		if t.hit {
			self = append(self, ms(cfg-dec-enc-ct))
		} else {
			self = append(self, ms(cfg-cl))
			engineSum += engine
		}
		e := ms(engine)
		if t.stable {
			engStable = append(engStable, e)
		} else {
			engUnstable = append(engUnstable, e)
		}
		if t.batched {
			engBatched = append(engBatched, e)
		} else {
			engPerAgent = append(engPerAgent, e)
		}
	}
	probeMS := map[string][]float64{}
	for _, s := range probes {
		if s.parent >= 0 {
			probeMS[s.name] = append(probeMS[s.name], ms(s.dur()))
		}
	}

	b, a := tm.before, tm.after
	ok := float64(max(tm.ok, 1))
	checks := 0.0
	if w.name != "dynamics" {
		checks = ok
	}
	m := map[string]metric{
		"serve.handler_ms":                 {quantile(handler, 0.5), "ms"},
		"serve.transport_ms":               {tm.endToEnd()["latency_p50_ms"].Value - quantile(handler, 0.5), "ms"},
		"serve.self_ms":                    {quantile(self, 0.5), "ms"},
		"serve.lru_hit_ratio":              {ratio(float64(a.Cache.Hits-b.Cache.Hits), checks), "ratio"},
		"serve.store_hits_setup":           {float64(tm.setupStoreHits), "count"},
		"serve.store_appends_per_req":      {ratio(float64(a.Store.Appends-b.Store.Appends), checks), "count"},
		"serve.coalesced_ratio":            {ratio(float64(a.Coalesce.Coalesced-b.Coalesce.Coalesced), float64(a.Coalesce.Leaders-b.Coalesce.Leaders+a.Coalesce.Coalesced-b.Coalesce.Coalesced)), "ratio"},
		"graphio.decode_ms":                {quantile(decode, 0.5), "ms"},
		"graphio.encode_ms":                {quantile(encode, 0.5), "ms"},
		"iso.certificate_ms":               {quantile(cert, 0.5), "ms"},
		"iso.certificate_ms.p99":           {quantile(cert, 0.99), "ms"},
		"iso.certificate_share":            {ratio(float64(certSum), float64(checkHandlerSum)), "ratio"},
		"core.check_ms.stable":             {quantile(engStable, 0.5), "ms"},
		"core.check_ms.unstable":           {quantile(engUnstable, 0.5), "ms"},
		"core.check_ms.batched":            {quantile(engBatched, 0.5), "ms"},
		"core.check_ms.per_agent":          {quantile(engPerAgent, 0.5), "ms"},
		"core.engine_share":                {ratio(float64(engineSum), float64(checkHandlerSum)), "ratio"},
		"game.new_ms":                      {quantile(probeMS["game.new"], 0.5), "ms"},
		"game.best_move_ms":                {quantile(probeMS["game.best_move"], 0.5), "ms"},
		"game.find_improvement_ms":         {quantile(probeMS["game.find_improvement"], 0.5), "ms"},
		"graph.bfs_row_us":                 {quantile(probeMS["graph.bfs_row"], 0.5) * 1000, "us"},
		"pricing.row_mb_per_batched_check": {rowMBPerBatchedCheck(tm), "MB"},
		"dynamics.run_ms":                  {quantile(run, 0.5), "ms"},
		"dynamics.ms_per_move":             {ratio(ms(runSum), float64(moves)), "ms"},
		"runtime.alloc_kb_per_req":         {ratio(float64(alloc)/1024, float64(len(traced))), "KB"},
		"runtime.gc_per_kreq":              {ratio(float64(gcs)*1000, float64(len(traced))), "count"},
	}
	for k, v := range trajectoryCounts(w, ref) {
		m[k] = v
	}
	return m
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// rowMBPerBatchedCheck is the n²·4 B row block each certified check
// whose batched pass ran must hold, averaged over those checks. It is
// computed from n, not measured.
func rowMBPerBatchedCheck(tm *timedResult) float64 {
	var sum float64
	count := 0
	for _, st := range tm.outcomes {
		for _, o := range st {
			if o.err != nil || o.req.path != pathCheck {
				continue
			}
			if resp, err := o.decoded(); err != nil || resp["cached"] == true || resp["batched"] != true {
				continue
			}
			sum += float64(o.req.n) * float64(o.req.n) * 4 / 1e6
			count++
		}
	}
	return ratio(sum, float64(count))
}

// trajectoryCounts averages the exact per-trajectory counts over the
// dynamics pool's reference answers, each distinct trajectory once, so
// they repeat exactly for a seed.
func trajectoryCounts(w *workload, ref *reference) map[string]metric {
	var moves, sweeps, recomputed, invalidated float64
	trajs := 0.0
	if w.name == "dynamics" {
		for _, r := range w.hot {
			var a struct {
				Moves           int    `json:"moves"`
				Sweeps          int    `json:"sweeps"`
				RowsRecomputed  uint64 `json:"rows_recomputed"`
				RowsInvalidated uint64 `json:"rows_invalidated"`
			}
			if json.Unmarshal(ref.answer(r), &a) != nil {
				continue
			}
			moves += float64(a.Moves)
			sweeps += float64(a.Sweeps)
			recomputed += float64(a.RowsRecomputed)
			invalidated += float64(a.RowsInvalidated)
			trajs++
		}
	}
	return map[string]metric{
		"dynamics.moves_per_traj":           {ratio(moves, trajs), "count"},
		"dynamics.sweeps_per_traj":          {ratio(sweeps, trajs), "count"},
		"pricing.rows_recomputed_per_traj":  {ratio(recomputed, trajs), "count"},
		"pricing.rows_invalidated_per_traj": {ratio(invalidated, trajs), "count"},
	}
}
