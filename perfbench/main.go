// Command perfbench is the repository's benchmark. It assembles a four-node
// D-STM cluster running the bank application under RTS, offers it an open
// loop of seeded Poisson arrivals at a fixed rate, and prints sojourn
// latency (from each transaction's due time) and goodput. With -trace 1 it
// splits the window between an untraced reference pass and a pass that
// decorates the transport and scheduler of every node, records spans at
// those boundaries, and prints per-layer metrics next to the tracing
// overhead. Every run fails unless the bank's conservation check passes.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload bank-contended --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it stamps the run
// with host, toolchain, seed, offered rate and generator lateness.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"dstm/internal/sched"
	"dstm/internal/stm"
	"dstm/internal/transport"
)

const (
	warmup       = 2 * time.Second
	drainCap     = 5 * time.Second
	drainGrace   = 2 * time.Second
	checkTimeout = 20 * time.Second
	// setupReps is how many times an untraced pass assembles the cluster.
	setupReps   = 5
	sampleEvery = 2 * time.Millisecond
)

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "schedule seed")
	seconds := flag.Int("seconds", 10, "measured window in seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	spansDir := flag.String("spans", ".bench_build/spans", "directory the traced run writes its spans to")
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d): %v\n", *name, *seconds, *traced, err)
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	window := time.Duration(*seconds) * time.Second
	ctx := context.Background()

	spec := runSpec{w: w, seed: *seed, warmup: warmup, window: window, setupReps: setupReps}
	if *traced == 1 {
		// The reference and traced passes split the window, so a traced
		// run takes about as long as an untraced one.
		spec.window = window / 2
	}
	ref, err := measure(ctx, spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	final, metrics := ref, endToEndMetrics(ref)
	var tr *pass
	if *traced == 1 {
		spec.traced, spec.setupReps = true, 1
		if tr, err = measure(ctx, spec); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		final, metrics = tr, perLayerMetrics(w, ref, tr)
	}

	st := stamp(w, *seed, spec.window, *traced, final)
	if tr != nil {
		path := filepath.Join(*spansDir, w.name+".jsonl")
		if err := writeJSONL(path, st, tr.spans); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		st["spans_file"] = path
	}
	correct := ref.checkErr == nil && (tr == nil || tr.checkErr == nil)
	for _, p := range []*pass{ref, tr} {
		if p != nil && p.checkErr != nil {
			fmt.Fprintf(os.Stderr, "perfbench: invariant check failed: %v\n", p.checkErr)
		}
	}
	report(os.Stderr, metrics)
	line, err := json.Marshal(map[string]any{"stamp": st})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	line, err = json.Marshal(result{
		Correct:   correct,
		Attempted: final.e2e.ops,
		Failed:    final.e2e.failed,
		Metrics:   metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// counters are the cumulative layer counters at one instant.
type counters struct {
	stm       stm.MetricsSnapshot
	sent      [numGroups]uint64
	conflicts uint64
	enqueues  uint64
	handed    uint64
	declines  uint64
	at        int64 // recorder clock; traced passes only
}

// pass is one measured run of a workload.
type pass struct {
	arrivals   []arrival
	res        *driveResult
	views      []opView
	e2e        endToEnd
	setupS     float64
	base, end  counters
	ownedShare float64
	objects    int
	depthSum   int
	depthN     int
	spans      []span
	lateMax    float64
	lateP99    float64
	checkErr   error
}

// runSpec is one pass of a workload.
type runSpec struct {
	w              workload
	seed           int64
	warmup, window time.Duration
	// setupReps is how many times the cluster is assembled; setup_s is
	// the median.
	setupReps int
	// traced decorates every node's transport and scheduler.
	traced bool
	// wrap, if set, adds a transport layer of the caller's beneath the
	// tracing decorator (the instrument tests slow the network with it).
	wrap func(node int, tr transport.Transport) transport.Transport
}

// measure assembles the cluster, drives the workload's schedule through a
// warm-up and the measured window, drains, and checks the bank invariant.
func measure(ctx context.Context, spec runSpec) (*pass, error) {
	w, traced := spec.w, spec.traced
	p := &pass{}
	var (
		rec *recorder
		tts []*tracedTransport
		tps []*tracedPolicy
		c   *benchCluster
	)
	reps := max(spec.setupReps, 1)
	setups := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		deco := decorators{transport: spec.wrap}
		if traced {
			rec, tts, tps = newRecorder(), nil, nil
			deco.transport = func(node int, tr transport.Transport) transport.Transport {
				if spec.wrap != nil {
					tr = spec.wrap(node, tr)
				}
				t := newTracedTransport(tr, node, rec)
				tts = append(tts, t)
				return t
			}
			deco.policy = func(node int, pol sched.Policy) sched.Policy {
				tp := &tracedPolicy{Policy: pol, node: node, rec: rec}
				tps = append(tps, tp)
				return tp
			}
		}
		t0 := time.Now()
		var err error
		if c, err = newCluster(ctx, w, deco); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < reps-1 {
			c.close()
		}
	}
	defer c.close()
	p.setupS = quantile(setups, 0.5)

	snap := func() counters {
		k := counters{stm: c.metrics()}
		for _, t := range tts {
			s := t.sentCounts()
			for g := range s {
				k.sent[g] += s[g]
			}
		}
		for _, tp := range tps {
			k.conflicts += tp.conflicts.Load()
			k.enqueues += tp.enqueues.Load()
			k.handed += tp.handed.Load()
			k.declines += tp.declines.Load()
		}
		if rec != nil {
			k.at = rec.now()
		}
		return k
	}

	p.arrivals = schedule(spec.seed, w.rate, w.readFrac, spec.warmup, spec.window)
	cfg := driveConfig{
		arrivals: p.arrivals,
		op: func(ctx context.Context, a arrival) error {
			return c.bank.Op(ctx, c.rts[a.node], rand.New(rand.NewSource(a.keySeed)), a.read)
		},
		drainCap: drainCap,
		grace:    drainGrace,
		atWindow: func() { p.base = snap() },
		atCap:    func() { c.dumpStuck(os.Stderr) },
	}
	if traced {
		cfg.sample = func() {
			p.depthSum += c.queueDepth()
			p.depthN++
		}
		cfg.sampleEvery = sampleEvery
	}
	p.res = drive(ctx, cfg)
	p.end = snap()
	p.ownedShare = c.ownedMaxShare()
	for _, rt := range c.rts {
		p.objects += rt.Store().Len()
	}

	p.views = views(p.arrivals, p.res)
	p.e2e = summarize(p.views, spec.warmup, spec.warmup+spec.window)
	var late []float64
	for i, a := range p.arrivals {
		if a.measured {
			late = append(late, ms(p.res.late[i]))
		}
	}
	p.lateP99 = quantile(late, 0.99)
	p.lateMax = quantile(late, 1)

	checkCtx, cancel := context.WithTimeout(ctx, checkTimeout)
	defer cancel()
	p.checkErr = c.bank.Check(checkCtx, c.rts[0])
	if errors.Is(p.checkErr, context.DeadlineExceeded) {
		p.checkErr = fmt.Errorf("conservation check did not finish within %v: %w", checkTimeout, p.checkErr)
		c.dumpStuck(os.Stderr)
	}

	if traced {
		p.spans = append(opSpans(p, rec), rec.snapshot()...)
	}
	return p, nil
}

// opSpans turns the driver's records into op spans on the recorder's clock.
func opSpans(p *pass, rec *recorder) []span {
	offset := int64(p.res.start.Sub(rec.t0))
	out := make([]span, 0, len(p.arrivals))
	for i, a := range p.arrivals {
		r := &p.res.recs[i]
		s := span{Name: "op", Node: a.node, ID: uint64(i), Start: offset + int64(a.due), End: -1, Detail: "write"}
		if a.read {
			s.Detail = "read"
		}
		if !a.measured {
			s.Detail += ",warmup"
		}
		if pk := r.pickup.Load(); pk != 0 {
			s.Pickup = offset + pk
		}
		if end := r.end.Load(); end != 0 {
			s.End = offset + end
			if r.err != nil {
				s.Detail += ",error: " + r.err.Error()
			}
		}
		out = append(out, s)
	}
	return out
}

func endToEndMetrics(p *pass) map[string]value {
	e := p.e2e
	vals := map[string]float64{
		"p50_ms":            printable(e.p50),
		"read_p50_ms":       printable(e.readP50),
		"write_p50_ms":      printable(e.writeP50),
		"worst_node_p50_ms": printable(e.worstNodeP50),
		"goodput_tps":       e.goodput,
		"completed_frac":    1 - ratio(uint64(e.failed), uint64(e.ops)),
		"setup_s":           p.setupS,
	}
	return withUnits(endToEndDefs, vals)
}

// perLayerMetrics computes the traced pass's layer metrics over the
// measured window; ref is the untraced pass the overhead is taken against.
func perLayerMetrics(w workload, ref, tr *pass) map[string]value {
	e := tr.e2e
	ops := uint64(e.ops)
	m := tr.end.stm
	m.Sub(tr.base.stm)
	attempts := m.Commits + m.TotalAborts()
	admit := make([]float64, 0, len(tr.views))
	service := make([]float64, 0, len(tr.views))
	for _, v := range tr.views {
		admit = append(admit, v.admit)
		if !math.IsNaN(v.service) {
			service = append(service, v.service)
		}
	}
	var sent [numGroups]uint64
	var totalSent uint64
	for g := range sent {
		sent[g] = tr.end.sent[g] - tr.base.sent[g]
		totalSent += sent[g]
	}
	conflicts := tr.end.conflicts - tr.base.conflicts
	enqueues := tr.end.enqueues - tr.base.enqueues
	useful := (tr.end.handed - tr.base.handed) - min(tr.end.handed-tr.base.handed, tr.end.declines-tr.base.declines)
	depthMean := 0.0
	if tr.depthN > 0 {
		depthMean = float64(tr.depthSum) / float64(tr.depthN)
	}

	vals := map[string]float64{
		"driver.ops":               float64(e.ops),
		"driver.read_ops":          float64(e.readOps),
		"driver.write_ops":         float64(e.writeOps),
		"driver.offered_tps":       w.rate,
		"driver.failed_frac":       ratio(uint64(e.failed), ops),
		"driver.admit_wait_p99_ms": printable(quantile(admit, 0.99)),
		"driver.gen_late_max_ms":   tr.lateMax,
		"driver.p95_ms":            printable(ref.e2e.p95),
		"driver.beyond_p95":        float64(ref.e2e.beyondP95),
		"driver.p99_ms":            printable(ref.e2e.p99),
		"driver.beyond_p99":        float64(ref.e2e.beyondP99),

		"trace.overhead_p50_ms": printable(e.p50) - printable(ref.e2e.p50),
		"trace.untraced_p50_ms": printable(ref.e2e.p50),
		"trace.spans":           float64(len(tr.spans)),

		"stm.service_p50_ms":              orZero(quantile(service, 0.5)),
		"stm.attempts_per_op":             ratio(attempts, ops),
		"stm.aborts_per_op.denied":        ratio(m.Aborts[stm.AbortDenied], ops),
		"stm.aborts_per_op.validation":    ratio(m.Aborts[stm.AbortValidation], ops),
		"stm.aborts_per_op.lock_failed":   ratio(m.Aborts[stm.AbortLockFailed], ops),
		"stm.aborts_per_op.queue_timeout": ratio(m.Aborts[stm.AbortQueueTimeout], ops),
		"stm.aborts_per_op.snapshot":      ratio(m.Aborts[stm.AbortSnapshot], ops),
		"stm.read_msgs_per_ro_commit":     m.ReadMsgsPerROCommit(),
		"stm.nested_parent_frac":          m.NestedAbortRate(),
		"stm.commit_msgs_per_commit":      m.MsgsPerCommit(),
		"stm.commit_rounds_per_commit":    m.RoundsPerCommit(),
		"stm.retrieves_per_op":            ratio(m.Retrieves, ops),
		"stm.attempts":                    float64(attempts),
		"stm.commits":                     float64(m.Commits),
		"stm.ro_commits":                  float64(m.ReadOnlyCommits),
		"stm.nested_aborts":               float64(m.NestedOwn + m.NestedParent),

		"cluster.msgs_per_op": ratio(totalSent, ops),
		"cluster.msgs":        float64(totalSent),

		"cc.dir_msgs_per_op": ratio(sent[groupDir], ops),
		"cc.dir_msgs":        float64(sent[groupDir]),

		"object.owned_max_share":   tr.ownedShare,
		"object.objects":           float64(tr.objects),
		"object.snap_reads_per_op": ratio(m.SnapReads, ops),
		"object.snap_reads":        float64(m.SnapReads),

		"sched.conflicts_per_op": ratio(conflicts, ops),
		"sched.enqueue_frac":     ratio(enqueues, conflicts),
		"sched.push_per_enqueue": ratio(useful, enqueues),
		"sched.queue_depth_mean": depthMean,
		"sched.conflicts":        float64(conflicts),
		"sched.enqueues":         float64(enqueues),
		"sched.useful_pushes":    float64(useful),
		"sched.queue_samples":    float64(tr.depthN),
	}
	rpcMetrics(tr, vals)
	return withUnits(perLayerDefs, vals)
}

// rpcMetrics adds, per message group, the call count and the p50 of round
// trip, handler time and their difference over calls that started in the
// measured window. Client and server spans of one call share the caller,
// the callee and the correlation ID.
func rpcMetrics(tr *pass, vals map[string]float64) {
	type callKey struct {
		client, server int
		corr           uint64
	}
	handler := make(map[callKey]int64)
	decide := []float64{}
	for _, s := range tr.spans {
		switch {
		case s.Start < tr.base.at:
		case strings.HasPrefix(s.Name, rpcPrefixes[1]):
			handler[callKey{s.Peer, s.Node, s.ID}] = s.End - s.Start
		case s.Name == "sched.on_conflict":
			decide = append(decide, us(s.End-s.Start))
		}
	}
	rtt := make([][]float64, numGroups)
	hnd := make([][]float64, numGroups)
	net := make([][]float64, numGroups)
	for _, s := range tr.spans {
		if s.Start < tr.base.at || !strings.HasPrefix(s.Name, rpcPrefixes[0]) {
			continue
		}
		g := groupOf(transport.Kind(s.Kind))
		d := s.End - s.Start
		rtt[g] = append(rtt[g], us(d))
		if h, ok := handler[callKey{s.Node, s.Peer, s.ID}]; ok {
			hnd[g] = append(hnd[g], us(h))
			net[g] = append(net[g], us(d-h))
		}
	}
	for _, rg := range rpcGroups {
		p := "cluster." + groupNames[rg.group]
		vals[p+".calls"] = float64(len(rtt[rg.group]))
		vals[p+".rtt_p50_us"] = orZero(quantile(rtt[rg.group], 0.5))
		vals[p+".handler_p50_us"] = orZero(quantile(hnd[rg.group], 0.5))
		vals[p+".net_p50_us"] = orZero(quantile(net[rg.group], 0.5))
	}
	vals["sched.decide_p50_us"] = orZero(quantile(decide, 0.5))
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// orZero maps the NaN of an empty sample to 0; the matching count metric
// shows the sample was empty.
func orZero(x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	return x
}

// withUnits attaches each def's unit; it panics on a def without a value,
// since that is a bug in this file.
func withUnits(defs []metricDef, vals map[string]float64) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			panic("perfbench: no value for metric " + d.name)
		}
		out[d.name] = value{Value: v, Unit: d.unit}
	}
	return out
}

// stamp identifies the host, toolchain, source and load of a run.
func stamp(w workload, seed int64, window time.Duration, traced int, p *pass) map[string]any {
	sha, dirty := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				sha = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	e := p.e2e
	return map[string]any{
		"workload":        w.name,
		"seed":            seed,
		"trace":           traced,
		"nproc":           runtime.NumCPU(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"go":              runtime.Version(),
		"git_sha":         sha,
		"git_dirty":       dirty,
		"nodes":           nodes,
		"workers_node":    workersPerNode,
		"offered_tps":     w.rate,
		"warmup_s":        warmup.Seconds(),
		"window_s":        window.Seconds(),
		"drain_cap_s":     drainCap.Seconds(),
		"gen_late_max_ms": p.lateMax,
		"gen_late_p99_ms": p.lateP99,
		"samples": map[string]int{
			"ops": e.ops, "read_ops": e.readOps, "write_ops": e.writeOps,
			"beyond_p95": e.beyondP95, "beyond_p99": e.beyondP99, "failed": e.failed,
		},
		"workers_stuck": p.res.stuck,
		"op_errors":     opErrors(p),
	}
}

// opErrors counts the measured ops' errors by message, keeping the five
// most frequent.
func opErrors(p *pass) map[string]int {
	counts := map[string]int{}
	for i, a := range p.arrivals {
		r := &p.res.recs[i]
		if a.measured && r.end.Load() != 0 && r.err != nil {
			counts[r.err.Error()]++
		}
	}
	msgs := make([]string, 0, len(counts))
	for m := range counts {
		msgs = append(msgs, m)
	}
	sort.Slice(msgs, func(i, j int) bool { return counts[msgs[i]] > counts[msgs[j]] })
	for _, m := range msgs[min(len(msgs), 5):] {
		delete(counts, m)
	}
	return counts
}

// report prints one metric a line, by name, for a reader.
func report(f io.Writer, metrics map[string]value) {
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(f, "%-36s %14.4f %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
}
