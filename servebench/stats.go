package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPercentile is the highest percentile, in whole percents up to 99,
// that leaves at least 10 samples beyond it: p99 from 1000 samples on,
// p90 at 100, and 0 (no tail) below 20 samples.
func tailPercentile(samples int) int {
	p := 99
	for p > 0 && float64(samples)*float64(100-p)/100 < 10 {
		p--
	}
	if p < 50 {
		return 0
	}
	return p
}

// span is one timed call recorded by the traced run. Spans of a request
// share req; parent indexes the enclosing span (-1 for a root).
type span struct {
	name   string
	req    int
	parent int
	start  time.Duration
	end    time.Duration
}

func (s span) dur() time.Duration { return s.end - s.start }

// selfTime is a span's duration minus the part of its interval that its
// children cover; overlapping children are counted once.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.start, parent.start), min(c.end, parent.end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered time.Duration
	var curA, curB time.Duration
	for i, v := range ivs {
		if i == 0 || v.a > curB {
			covered += curB - curA
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	covered += curB - curA
	return parent.dur() - covered
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
