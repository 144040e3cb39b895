package game

import (
	"context"

	"repro/internal/graph"
	"repro/internal/pricing"
)

// This file is the context-aware face of the certification machinery: the
// same sweeps as CheckSwap / Instance.CheckStable / the batched passes,
// with cooperative cancellation polled between per-agent scan units by
// the sweep driver (sweep.go). A long-lived service (internal/serve) needs
// to abandon a half-done whole-graph sweep when the client's deadline
// expires. All *Ctx functions return ctx.Err() on cancellation and are
// otherwise bit-identical to their context-free counterparts (which
// delegate here with a nil context).

// pollCtx reports the context's error, tolerating a nil context (never
// cancels). It is called between per-agent scan units.
func pollCtx(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// CheckSwapCtx is CheckSwap with cooperative cancellation: ctx is polled
// between per-agent scans and per candidate endpoint inside them, and its
// error returned on expiry. Verdict and witness are bit-identical to
// CheckSwap for any worker count.
func CheckSwapCtx(ctx context.Context, g *graph.Graph, obj Objective, workers int, deletionCritical bool) (bool, *Violation, error) {
	n := g.N()
	if n <= 1 {
		return true, nil, nil
	}
	if !g.IsConnected() {
		return false, nil, ErrDisconnected
	}
	eng, f := pricing.Shared(workers), g.Freeze()
	found, err := swapScan(ctx, eng, f, func(v int) *pricing.Scan { return eng.NewScan(f, v) },
		obj, deletionCritical, nil)
	if err != nil {
		return false, nil, err
	}
	return found == nil, found, nil
}

// HasBatchedSweep reports whether the instance ships a batched cross-agent
// certification pass (BatchedSweeper). Callers use it to report whether a
// Batched request will actually batch or silently run per agent.
func HasBatchedSweep(inst Instance) bool {
	_, ok := inst.(BatchedSweeper)
	return ok
}

// FindImprovementCtx is the shared certification sweep (agents ascending,
// first improving move in the instance's enumeration order, twins skipped
// for the models that allow it) with ctx polled between agents. The found
// result is identical to Instance.FindImprovement.
func FindImprovementCtx(ctx context.Context, inst Instance, obj Objective) (m Move, oldCost, newCost int64, ok bool, err error) {
	viol, err := instanceSweep(ctx, inst, obj)
	m, oldCost, newCost, ok = viol.asMove()
	return m, oldCost, newCost, ok, err
}

// instanceSweep runs the sweep driver over inst's FirstImproving.
func instanceSweep(ctx context.Context, inst Instance, obj Objective) (*Violation, error) {
	return sweep(ctx, inst.Graph().N(), twinView(inst), func(v int) *Violation {
		return improvement(inst.FirstImproving(v, obj))
	})
}

// CheckStableCtx certifies the instance's position like
// Instance.CheckStable for the models whose stability is exactly the
// certification sweep (greedy, interests, budget, 2-neighborhood — the
// swap model's one-shot checks go through CheckSwapCtx instead, which adds
// the connectivity gate and deletion-criticality side condition). With
// batched set the sweep routes through the instance's batched cross-agent
// pass when it has one (bit-identical results; cancellation granularity is
// then the whole pass rather than one agent) and falls back to the
// per-agent ctx sweep otherwise.
func CheckStableCtx(ctx context.Context, inst Instance, obj Objective, batched bool) (bool, *Violation, error) {
	var viol *Violation
	if b, ok := inst.(BatchedSweeper); batched && ok {
		if err := pollCtx(ctx); err != nil {
			return false, nil, err
		}
		viol = improvement(b.FindImprovementBatched(obj))
	} else {
		var err error
		if viol, err = instanceSweep(ctx, inst, obj); err != nil {
			return false, nil, err
		}
	}
	return viol == nil, viol, nil
}
