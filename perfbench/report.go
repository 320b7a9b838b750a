package main

import (
	"math"
	"sort"
	"time"
)

// missMs is how a latency percentile that lands on a failed or unfinished
// op is printed: such ops count as infinitely slow, and JSON has no
// infinity.
const missMs = 1e9

// quantile returns the nearest-rank q-quantile of vals (which may hold
// +Inf), or NaN when vals is empty. vals is sorted in place.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	sort.Float64s(vals)
	i := int(math.Ceil(q*float64(len(vals)))) - 1
	return vals[min(max(i, 0), len(vals)-1)]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is num/den, or 0 when den is 0.
func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// opView is one measured arrival's outcome in milliseconds. Sojourn and
// admission wait run from the due time; a failed op's sojourn is +Inf, and
// so is the admission wait of an op never picked up.
type opView struct {
	node    int
	read    bool
	ok      bool
	sojourn float64
	admit   float64
	service float64 // time inside the op; NaN if unfinished
	endNs   int64
}

// views extracts the measured arrivals' outcomes from a run.
func views(arrivals []arrival, res *driveResult) []opView {
	var out []opView
	for i, a := range arrivals {
		if !a.measured {
			continue
		}
		r := &res.recs[i]
		v := opView{node: a.node, read: a.read, sojourn: math.Inf(1), admit: math.Inf(1), service: math.NaN()}
		pickup, end := r.pickup.Load(), r.end.Load()
		due := int64(a.due)
		if pickup != 0 {
			v.admit = ms(time.Duration(pickup - due))
		}
		if end != 0 {
			v.endNs = end
			v.service = ms(time.Duration(end - pickup))
			if r.err == nil {
				v.ok = true
				v.sojourn = ms(time.Duration(end - due))
			}
		}
		out = append(out, v)
	}
	return out
}

// sojourns collects the sojourn times of the ops keep selects.
func sojourns(vs []opView, keep func(opView) bool) []float64 {
	var out []float64
	for _, v := range vs {
		if keep(v) {
			out = append(out, v.sojourn)
		}
	}
	return out
}

// printable maps an infinite percentile to missMs.
func printable(x float64) float64 {
	if math.IsInf(x, 1) {
		return missMs
	}
	return x
}

// endToEnd is the user-visible summary of one untraced pass.
type endToEnd struct {
	ops, failed       int
	p50, p95, p99     float64
	readP50, writeP50 float64
	worstNodeP50      float64
	goodput           float64
	readOps, writeOps int
	// beyondP95 and beyondP99 count the samples beyond each percentile.
	beyondP95, beyondP99 int
}

// summarize computes the end-to-end metrics over the measured window
// [windowStart, windowEnd) of due times.
func summarize(vs []opView, windowStart, windowEnd time.Duration) endToEnd {
	e := endToEnd{ops: len(vs)}
	var lastEnd int64
	for _, v := range vs {
		if !v.ok {
			e.failed++
		}
		if v.read {
			e.readOps++
		} else {
			e.writeOps++
		}
		lastEnd = max(lastEnd, v.endNs)
	}
	every := sojourns(vs, func(opView) bool { return true })
	e.p50 = quantile(every, 0.50)
	e.p95 = quantile(every, 0.95)
	e.p99 = quantile(every, 0.99)
	e.beyondP95 = e.ops - int(math.Ceil(0.95*float64(e.ops)))
	e.beyondP99 = e.ops - int(math.Ceil(0.99*float64(e.ops)))
	e.readP50 = quantile(sojourns(vs, func(v opView) bool { return v.read }), 0.50)
	e.writeP50 = quantile(sojourns(vs, func(v opView) bool { return !v.read }), 0.50)
	for node := 0; node < nodes; node++ {
		p := quantile(sojourns(vs, func(v opView) bool { return v.node == node }), 0.50)
		if !math.IsNaN(p) {
			e.worstNodeP50 = math.Max(e.worstNodeP50, p)
		}
	}
	span := max(time.Duration(lastEnd), windowEnd) - windowStart
	e.goodput = float64(e.ops-e.failed) / span.Seconds()
	return e
}
