package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"dstm/internal/cc"
	"dstm/internal/object"
	"dstm/internal/sched"
	"dstm/internal/stm"
	"dstm/internal/transport"
)

// span is one timed interval at a layer boundary, in nanoseconds since the
// recorder started. Op spans run from the arrival's due time and carry its
// index as ID; RPC spans carry the message kind and correlation ID, with
// Node the recording side and Peer the other side.
type span struct {
	Name  string `json:"name"`
	Node  int    `json:"node"`
	Peer  int    `json:"peer"`
	ID    uint64 `json:"id"`
	Kind  int    `json:"kind,omitempty"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	// Pickup is when a worker took an op span's arrival (0 if never).
	Pickup int64  `json:"pickup_ns,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeJSONL writes every span, one JSON object a line, preceded by a
// header line holding stamp.
func writeJSONL(path string, stamp map[string]any, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans dir: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans file: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	werr := enc.Encode(map[string]any{"stamp": stamp})
	for i := 0; werr == nil && i < len(spans); i++ {
		werr = enc.Encode(&spans[i])
	}
	if werr == nil {
		werr = bw.Flush()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("spans write: %w", werr)
	}
	return nil
}

// msgGroup buckets message kinds by the layer whose protocol they carry.
type msgGroup int

const (
	groupRetrieve msgGroup = iota
	groupCommit
	groupSnapRead
	groupDir
	groupOther
	numGroups
)

var groupNames = [numGroups]string{"retrieve", "commit", "snapread", "dir", "other"}

func groupOf(k transport.Kind) msgGroup {
	switch k {
	case stm.KindRetrieve:
		return groupRetrieve
	case stm.KindCheckVersion, stm.KindAcquire, stm.KindRelease, stm.KindCommitObject,
		stm.KindAcquireBatch, stm.KindCheckVersionBatch, stm.KindCommitObjectBatch:
		return groupCommit
	case stm.KindSnapshotRead, stm.KindSnapshotReadBatch:
		return groupSnapRead
	case cc.KindLookup, cc.KindRegister, cc.KindUpdate,
		cc.KindLookupBatch, cc.KindRegisterBatch, cc.KindUpdateBatch:
		return groupDir
	}
	return groupOther
}

type corrKey struct {
	peer transport.NodeID
	corr uint64
}

// tracedTransport decorates one node's transport. It counts every message
// sent, by group, and pairs each request with its reply by (peer, Corr):
// on the calling side into an rpc.client.<kind> span from first send to
// reply arrival, on the serving side into an rpc.server.<kind> span from
// request arrival to reply send. Messages pass through unchanged.
type tracedTransport struct {
	transport.Transport
	node int
	rec  *recorder

	mu      sync.Mutex
	calls   map[corrKey]int64 // requests sent, awaiting a reply
	serving map[corrKey]int64 // requests received, not yet answered

	sent [numGroups]atomic.Uint64
}

func newTracedTransport(tr transport.Transport, node int, rec *recorder) *tracedTransport {
	return &tracedTransport{
		Transport: tr,
		node:      node,
		rec:       rec,
		calls:     make(map[corrKey]int64),
		serving:   make(map[corrKey]int64),
	}
}

// Send implements transport.Transport.
func (t *tracedTransport) Send(m *transport.Message) error {
	t.sent[groupOf(m.Kind)].Add(1)
	if m.Corr != 0 {
		now := t.rec.now()
		k := corrKey{m.To, m.Corr}
		t.mu.Lock()
		if m.IsReply {
			at, ok := t.serving[k]
			delete(t.serving, k)
			t.mu.Unlock()
			if ok {
				t.rec.add(span{Name: rpcName(true, m.Kind), Node: t.node, Peer: int(m.To), ID: m.Corr, Kind: int(m.Kind), Start: at, End: now})
			}
		} else {
			// A retransmission keeps the first send's time.
			if _, dup := t.calls[k]; !dup {
				t.calls[k] = now
			}
			t.mu.Unlock()
		}
	}
	return t.Transport.Send(m)
}

// SetHandler implements transport.Transport.
func (t *tracedTransport) SetHandler(h transport.Handler) {
	t.Transport.SetHandler(func(m *transport.Message) {
		if m.Corr != 0 {
			now := t.rec.now()
			k := corrKey{m.From, m.Corr}
			t.mu.Lock()
			if m.IsReply {
				at, ok := t.calls[k]
				delete(t.calls, k)
				t.mu.Unlock()
				if ok {
					t.rec.add(span{Name: rpcName(false, m.Kind), Node: t.node, Peer: int(m.From), ID: m.Corr, Kind: int(m.Kind), Start: at, End: now})
				}
			} else {
				if _, dup := t.serving[k]; !dup {
					t.serving[k] = now
				}
				t.mu.Unlock()
			}
		}
		h(m)
	})
}

func (t *tracedTransport) sentCounts() (out [numGroups]uint64) {
	for g := range out {
		out[g] = t.sent[g].Load()
	}
	return out
}

// rpcPrefixes name an RPC span by the side that records it: the caller
// (0) or the server (1).
var rpcPrefixes = [2]string{"rpc.client.", "rpc.server."}

// rpcNames caches the span names of the kinds in use, so the hot path does
// not format.
var rpcNames = func() (names [2][32]string) {
	for side, prefix := range rpcPrefixes {
		for k := range names[side] {
			names[side][k] = prefix + fmt.Sprint(k)
		}
	}
	return names
}()

func rpcName(server bool, k transport.Kind) string {
	side := 0
	if server {
		side = 1
	}
	if int(k) < len(rpcNames[side]) {
		return rpcNames[side][k]
	}
	return rpcPrefixes[side] + fmt.Sprint(uint16(k))
}

// tracedPolicy decorates one node's scheduler. It times every OnConflict
// into a sched.on_conflict span and counts conflicts, enqueue decisions,
// requesters handed the object and declined hand-offs. It forwards the
// optional interfaces the runtime and samplers type-assert, so the
// decorated scheduler behaves as the bare one.
type tracedPolicy struct {
	sched.Policy
	node int
	rec  *recorder

	conflicts atomic.Uint64
	enqueues  atomic.Uint64
	handed    atomic.Uint64
	declines  atomic.Uint64
}

// feedbacker mirrors the optional interface stm.Runtime asserts on its
// policy to report transaction outcomes (RTS's adaptive threshold).
type feedbacker interface{ Feedback(committed bool) }

var (
	_ feedbacker         = (*tracedPolicy)(nil)
	_ sched.QueueDepther = (*tracedPolicy)(nil)
)

// OnConflict implements sched.Policy.
func (p *tracedPolicy) OnConflict(req sched.Request) sched.Decision {
	start := p.rec.now()
	d := p.Policy.OnConflict(req)
	end := p.rec.now()
	p.conflicts.Add(1)
	detail := "deny"
	if d.Enqueue {
		p.enqueues.Add(1)
		detail = "enqueue"
	}
	p.rec.add(span{Name: "sched.on_conflict", Node: p.node, Peer: int(req.Node), ID: req.TxID, Start: start, End: end, Detail: detail})
	return d
}

// OnRelease implements sched.Policy.
func (p *tracedPolicy) OnRelease(oid object.ID) []sched.Request {
	reqs := p.Policy.OnRelease(oid)
	p.handed.Add(uint64(len(reqs)))
	return reqs
}

// OnDecline implements sched.Policy.
func (p *tracedPolicy) OnDecline(oid object.ID) []sched.Request {
	p.declines.Add(1)
	reqs := p.Policy.OnDecline(oid)
	p.handed.Add(uint64(len(reqs)))
	return reqs
}

// Feedback forwards outcome reports to schedulers that adapt to them.
func (p *tracedPolicy) Feedback(committed bool) {
	if f, ok := p.Policy.(feedbacker); ok {
		f.Feedback(committed)
	}
}

// QueueDepth forwards to the wrapped scheduler's parked-requester count.
func (p *tracedPolicy) QueueDepth() int {
	if q, ok := p.Policy.(sched.QueueDepther); ok {
		return q.QueueDepth()
	}
	return 0
}
