package main

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"dstm/internal/cluster"
	"dstm/internal/core"
	"dstm/internal/object"
	"dstm/internal/sched"
	"dstm/internal/stm"
	"dstm/internal/transport"
	"dstm/internal/vclock"
)

// TestPolicyDecoratorForwards checks that a decorated RTS still receives
// the runtime's commit feedback (which drives its adaptive threshold) and
// still reports its parked requesters.
func TestPolicyDecoratorForwards(t *testing.T) {
	rts := core.New(core.Options{CLThreshold: 3, Adaptive: true, AdaptBatch: 1, CLWindow: rtsCLWindow(0.01)})
	p := &tracedPolicy{Policy: rts, rec: newRecorder()}

	net := transport.NewNetwork(nil)
	defer net.Close()
	rt := stm.NewRuntime(cluster.NewEndpoint(net.Endpoint(0), &vclock.Clock{}), 1, p, nil)
	ctx := context.Background()
	if err := rt.CreateRoot(ctx, "x", &counter{}); err != nil {
		t.Fatal(err)
	}
	before := rts.Threshold()
	if err := rt.Atomic(ctx, "inc", func(tx *stm.Txn) error {
		return tx.Update(ctx, "x", func(v object.Value) object.Value { v.(*counter).N++; return v })
	}); err != nil {
		t.Fatal(err)
	}
	if after := rts.Threshold(); after == before {
		t.Errorf("RTS threshold stayed %d after a commit: feedback did not reach the wrapped scheduler", after)
	}

	var q sched.QueueDepther = p
	d := p.OnConflict(sched.Request{Oid: "y", TxID: 7, Mode: sched.Write, Elapsed: time.Second, ExpectedRemaining: time.Millisecond})
	if !d.Enqueue {
		t.Fatalf("RTS denied a request it should park: %+v", d)
	}
	if got, want := q.QueueDepth(), rts.QueueDepth(); got != 1 || want != 1 {
		t.Errorf("decorated QueueDepth %d, RTS QueueDepth %d, want 1 and 1", got, want)
	}
	if p.conflicts.Load() != 1 || p.enqueues.Load() != 1 {
		t.Errorf("conflicts %d enqueues %d, want 1 and 1", p.conflicts.Load(), p.enqueues.Load())
	}
	if spans := p.rec.snapshot(); len(spans) != 1 || spans[0].Name != "sched.on_conflict" || spans[0].Detail != "enqueue" {
		t.Errorf("spans %+v, want one sched.on_conflict enqueue span", spans)
	}
}

type counter struct{ N int }

func (c *counter) Copy() object.Value { d := *c; return &d }

// TestTransportDecoratorDeliversUnchanged sends requests, replies and
// notifications through decorated endpoints and checks that every message
// arrives as sent, and that each request/reply pair yields one client and
// one server span.
func TestTransportDecoratorDeliversUnchanged(t *testing.T) {
	net := transport.NewNetwork(nil)
	defer net.Close()
	rec := newRecorder()
	a := newTracedTransport(net.Endpoint(0), 0, rec)
	b := newTracedTransport(net.Endpoint(1), 1, rec)
	got := make(chan transport.Message, 16)
	a.SetHandler(func(m *transport.Message) { got <- *m })
	b.SetHandler(func(m *transport.Message) { got <- *m })

	sent := []transport.Message{
		{From: 0, To: 1, Clock: 5, Kind: stm.KindRetrieve, Corr: 1, Payload: "req"},
		{From: 0, To: 1, Clock: 6, Kind: stm.KindPush, Payload: 42},
		{From: 1, To: 0, Clock: 7, Kind: stm.KindRetrieve, Corr: 1, IsReply: true, Payload: "reply"},
	}
	for i := range sent {
		m := sent[i]
		src := a
		if m.From == 1 {
			src = b
		}
		if err := src.Send(&m); err != nil {
			t.Fatal(err)
		}
		select {
		case r := <-got:
			if !reflect.DeepEqual(r, sent[i]) {
				t.Errorf("message %d arrived as %+v, sent %+v", i, r, sent[i])
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("message %d not delivered", i)
		}
	}
	names := map[string]int{}
	for _, s := range rec.snapshot() {
		names[s.Name]++
	}
	if want := (map[string]int{"rpc.client.10": 1, "rpc.server.10": 1}); !reflect.DeepEqual(names, want) {
		t.Errorf("spans %v, want %v", names, want)
	}
	if a.sent[groupRetrieve].Load() != 1 || a.sent[groupOther].Load() != 1 || b.sent[groupRetrieve].Load() != 1 {
		t.Errorf("sent counts a=%v b=%v", a.sentCounts(), b.sentCounts())
	}
}

// delayTransport holds every message for a fixed time before sending it.
type delayTransport struct {
	transport.Transport
	d time.Duration
}

func (t delayTransport) Send(m *transport.Message) error {
	time.Sleep(t.d)
	return t.Transport.Send(m)
}

// TestDelayRaisesP50 is the end-to-end instrument's sanity check: slowing
// every message must show up in the measured median.
func TestDelayRaisesP50(t *testing.T) {
	w, err := findWorkload("bank-contended")
	if err != nil {
		t.Fatal(err)
	}
	w.rate = 20
	spec := runSpec{w: w, seed: 1, warmup: 200 * time.Millisecond, window: time.Second, setupReps: 1}
	base, err := measure(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	const delay = 2 * time.Millisecond
	spec.wrap = func(_ int, tr transport.Transport) transport.Transport { return delayTransport{tr, delay} }
	slow, err := measure(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*pass{base, slow} {
		if p.checkErr != nil || p.e2e.failed != 0 {
			t.Fatalf("check %v, failed %d", p.checkErr, p.e2e.failed)
		}
	}
	// A write retrieves and commits over several round trips, each now
	// carrying two delayed messages.
	if slow.e2e.p50 < base.e2e.p50+ms(4*delay) {
		t.Errorf("p50 %.2f ms with a %v delay per message, %.2f ms without", slow.e2e.p50, delay, base.e2e.p50)
	}
}

// syntheticRun drives a schedule of n arrivals over a 1 s window with op.
func syntheticRun(t *testing.T, n int, op opFunc) (*driveResult, []arrival, endToEnd) {
	t.Helper()
	window := time.Second
	arrivals := schedule(3, float64(n), 0.5, 0, window)
	res := drive(context.Background(), driveConfig{
		arrivals: arrivals, op: op, drainCap: 300 * time.Millisecond, grace: 100 * time.Millisecond,
	})
	return res, arrivals, summarize(views(arrivals, res), 0, window)
}

// TestUnfinishedOpIsAMiss checks that an op that never returns and an op
// that errors both count as failed and, as two ops in 50, put p99 on a miss.
func TestUnfinishedOpIsAMiss(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	arrivals := schedule(3, 50, 0.5, 0, time.Second)
	hang, fail := arrivals[25].keySeed, arrivals[30].keySeed
	res, _, e := syntheticRun(t, 50, func(_ context.Context, a arrival) error {
		switch a.keySeed {
		case hang:
			<-release
		case fail:
			return errors.New("op failed")
		}
		return nil
	})
	if !res.stuck {
		t.Error("a worker blocked forever was not reported as stuck")
	}
	if e.ops != 50 || e.failed != 2 {
		t.Fatalf("failed %d of %d ops, want 2 of 50", e.failed, e.ops)
	}
	if !math.IsInf(e.p99, 1) || printable(e.p99) != missMs {
		t.Errorf("p99 %v with two ops in 50 failed, want a miss", e.p99)
	}
	if math.IsInf(e.p50, 1) {
		t.Errorf("p50 is a miss with two ops in 50 failed")
	}
}

// TestStalledPoolRaisesP99 blocks every worker's first op until 700 ms
// into the window. Ops due meanwhile wait in the admission queues and then
// run fast, so only timing from the due time shows the stall in p50, p99
// and admission wait.
func TestStalledPoolRaisesP99(t *testing.T) {
	_, _, fast := syntheticRun(t, 200, func(context.Context, arrival) error { return nil })
	gate := time.Now().Add(700 * time.Millisecond)
	var started [nodes]atomic.Int32
	res, arrivals, stalled := syntheticRun(t, 200, func(_ context.Context, a arrival) error {
		if started[a.node].Add(1) <= workersPerNode {
			time.Sleep(time.Until(gate))
		}
		return nil
	})
	var admit []float64
	for _, v := range views(arrivals, res) {
		admit = append(admit, v.admit)
	}
	if fast.p99 > 50 {
		t.Fatalf("p99 %.1f ms without a stall", fast.p99)
	}
	if stalled.p99 < 300 || stalled.p50 < 50 {
		t.Errorf("p50 %.1f ms, p99 %.1f ms with every worker stalled for 700 ms", stalled.p50, stalled.p99)
	}
	if w := quantile(admit, 0.99); w < 300 {
		t.Errorf("admission wait p99 %.1f ms with every worker stalled for 700 ms", w)
	}
}

// TestScheduleIsSeeded checks that one seed always draws the same arrivals
// and another seed different ones, at the requested counts.
func TestScheduleIsSeeded(t *testing.T) {
	a := schedule(9, 100, 0.1, 2*time.Second, 10*time.Second)
	b := schedule(9, 100, 0.1, 2*time.Second, 10*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two schedules from one seed differ")
	}
	if c := schedule(10, 100, 0.1, 2*time.Second, 10*time.Second); reflect.DeepEqual(a, c) {
		t.Fatal("schedules from different seeds are identical")
	}
	measured := 0
	for i, x := range a {
		if x.measured {
			measured++
		}
		if i > 0 && x.due < a[i-1].due {
			t.Fatalf("arrival %d due before its predecessor", i)
		}
	}
	if len(a) != 1200 || measured != 1000 {
		t.Errorf("%d arrivals, %d measured; want 1200 and 1000", len(a), measured)
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json in step with the
// workloads and metrics this program prints.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program %q: %q", i, doc.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []metric, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %s in %s", kind, i, got[i], d.name, d.unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEndDefs)
	check("per_layer", doc.PerLayer, perLayerDefs)
}
