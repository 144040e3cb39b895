package core

import (
	"context"

	"repro/internal/game"
	"repro/internal/graph"
)

// CheckSpec selects one equilibrium check: which deviation model, which
// usage cost, which half of the max condition, and which execution path.
// It is the single request shape the historical CheckSum / CheckMax /
// CheckSwapStable × *Batched surface collapsed into: every one of those
// names is now a one-line wrapper over Check with a fixed spec, and the
// service layer (internal/serve) and the CLI share the same struct.
//
// The zero value checks full sum equilibrium of the basic swap game on the
// per-agent path with default workers.
type CheckSpec struct {
	// Model is the deviation model; nil selects the basic swap game
	// (game.Swap). The swap model runs the paper's checkers (connectivity
	// gate, deletion-criticality side condition); every other model is
	// certified by its own stability sweep.
	Model game.Model
	// Objective is the usage cost (Sum or Max). Models that price without
	// a distance objective (TwoNeighborhood) ignore it.
	Objective Objective
	// StableOnly skips the max version's deletion-criticality side
	// condition, checking only that no single move strictly improves any
	// agent — the condition move dynamics converge to (the historical
	// CheckSwapStable). It is a no-op under Sum and for non-swap models,
	// whose stability has no side conditions.
	StableOnly bool
	// Batched routes the check through the batched cross-agent sweep when
	// the model has one: candidate-endpoint BFS rows are computed once and
	// reused across deviators as sound lower-bound filters (O(n²)
	// transient memory, far fewer BFS). Verdicts and witnesses are
	// bit-identical either way; models without a batched pass fall back to
	// the per-agent sweep, and Verdict.Batched reports which path actually
	// ran.
	Batched bool
	// Workers bounds the pricing parallelism (<= 0 means all cores).
	// Verdicts and witnesses are identical for every worker count.
	Workers int
}

// Verdict is the outcome of a Check: the stability bit and, on failure,
// the witness violation.
type Verdict struct {
	// Stable reports whether the graph passed the spec'd check.
	Stable bool
	// Violation is the witness on failure (nil when Stable).
	Violation *Violation
	// Batched reports whether the batched cross-agent pass actually ran —
	// false when it was not requested or when the model lacks one and the
	// check fell back to the per-agent sweep.
	Batched bool
}

// Check runs the equilibrium check selected by spec on g. It is the one
// entry point behind the deprecated CheckSum / CheckMax / CheckSwapStable
// × *Batched names and returns bit-identically their verdicts and
// witnesses for the corresponding specs.
func Check(g *graph.Graph, spec CheckSpec) (Verdict, error) {
	return CheckCtx(context.Background(), g, spec)
}

// CheckCtx is Check with cooperative cancellation: ctx is polled between
// per-agent scans (for batched non-swap models, between whole passes) and
// its error is returned on expiry. The service layer uses it to enforce
// per-request timeouts mid-scan.
func CheckCtx(ctx context.Context, g *graph.Graph, spec CheckSpec) (Verdict, error) {
	model := spec.Model
	if model == nil {
		model = game.Swap{}
	}
	if _, isSwap := model.(game.Swap); isSwap {
		deletionCritical := !spec.StableOnly
		var (
			ok   bool
			viol *Violation
			err  error
		)
		if spec.Batched {
			ok, viol, err = game.CheckSwapBatchedCtx(ctx, g, spec.Objective, spec.Workers, deletionCritical)
		} else {
			ok, viol, err = game.CheckSwapCtx(ctx, g, spec.Objective, spec.Workers, deletionCritical)
		}
		if err != nil {
			return Verdict{}, err
		}
		return Verdict{Stable: ok, Violation: viol, Batched: spec.Batched}, nil
	}
	inst := model.New(g, spec.Workers)
	defer game.CloseInstance(inst)
	batched := spec.Batched && game.HasBatchedSweep(inst)
	ok, viol, err := game.CheckStableCtx(ctx, inst, spec.Objective, batched)
	if err != nil {
		return Verdict{}, err
	}
	return Verdict{Stable: ok, Violation: viol, Batched: batched}, nil
}
