package game

import (
	"context"
	"sync/atomic"
)

// ScanCanceller is the optional capability of session instances whose
// per-agent candidate scans poll a cooperative cancel hook between pricing
// units (one poll per candidate endpoint, never inside its BFS; the
// one-shot swap checks install the same hook from their context).
// Installing a hook makes a long single-agent scan — the
// /v1/bestresponse hot path, where one vertex's scan is Θ(n) BFS —
// abortable mid-scan instead of being one uncancellable pricing unit.
//
// A cancelled scan's result is unspecified (partial or absent); the
// installer must check its own cancellation source after the scan and
// discard the result on expiry. The hook must be cheap and safe for
// concurrent calls. All pricing-session-backed instances implement this;
// naive oracles do not.
type ScanCanceller interface {
	SetScanCancel(cancel func() bool)
}

// SetScanCancel installs cancel on inst's per-agent scans when the
// instance supports it, reporting whether it was installed. Callers whose
// instance lacks the capability fall back to checking cancellation only
// between scans.
func SetScanCancel(inst Instance, cancel func() bool) bool {
	sc, ok := inst.(ScanCanceller)
	if ok {
		sc.SetScanCancel(cancel)
	}
	return ok
}

// ContextCancel adapts ctx to a scan cancel hook: a ctx.Err() poll latched
// through an atomic flag, so every scan chunk observes the first expiry
// without re-querying the context. It is nil for a context that can never
// be cancelled (nil, Background), so such scans pay no poll at all.
func ContextCancel(ctx context.Context) func() bool {
	if ctx == nil || ctx.Done() == nil {
		return nil
	}
	var stop atomic.Bool
	return func() bool {
		if stop.Load() {
			return true
		}
		if ctx.Err() != nil {
			stop.Store(true)
			return true
		}
		return false
	}
}
