package stm

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"dstm/internal/cc"
	"dstm/internal/cluster"
	"dstm/internal/object"
	"dstm/internal/sched"
	"dstm/internal/transport"
	"dstm/internal/vclock"
)

// msgCounts tallies the requests and one-way messages a cluster sends, by
// kind. onSend, when set, runs before every such send and may fail it.
type msgCounts struct {
	mu     sync.Mutex
	sent   map[transport.Kind]int
	onSend func(m *transport.Message) error
}

func (c *msgCounts) get(k transport.Kind) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sent[k]
}

func (c *msgCounts) reset() {
	c.mu.Lock()
	c.sent = make(map[transport.Kind]int)
	c.mu.Unlock()
}

func (c *msgCounts) setOnSend(f func(m *transport.Message) error) {
	c.mu.Lock()
	c.onSend = f
	c.mu.Unlock()
}

// lookups is the number of home-directory lookups sent.
func (c *msgCounts) lookups() int { return c.get(cc.KindLookup) + c.get(cc.KindLookupBatch) }

// countingTransport is the transport wrapper that feeds msgCounts.
type countingTransport struct {
	transport.Transport
	c *msgCounts
}

func (t countingTransport) Send(m *transport.Message) error {
	if !m.IsReply {
		t.c.mu.Lock()
		t.c.sent[m.Kind]++
		hook := t.c.onSend
		t.c.mu.Unlock()
		if hook != nil {
			if err := hook(m); err != nil {
				return err
			}
		}
	}
	return t.Transport.Send(m)
}

// newCountingCluster builds n plain-TFA runtimes over an in-memory network
// whose every endpoint counts its sends into one shared msgCounts.
func newCountingCluster(t *testing.T, n int) (*testCluster, *msgCounts) {
	t.Helper()
	net := transport.NewNetwork(nil)
	t.Cleanup(func() { net.Close() })
	counts := &msgCounts{sent: make(map[transport.Kind]int)}
	tc := &testCluster{net: net}
	for i := 0; i < n; i++ {
		tr := countingTransport{Transport: net.Endpoint(transport.NodeID(i)), c: counts}
		ep := cluster.NewEndpoint(tr, &vclock.Clock{})
		tc.rts = append(tc.rts, NewRuntime(ep, n, sched.NewTFA(), nil))
	}
	return tc, counts
}

// opTimeout bounds each test transaction, so an object the chase cannot
// reach fails the test instead of retrying forever.
const opTimeout = 10 * time.Second

func writeOp(rt *Runtime, oid object.ID, n int64) error {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	return rt.Atomic(ctx, "w", func(tx *Txn) error {
		return tx.Write(ctx, oid, &box{N: n})
	})
}

func writeBox(t *testing.T, rt *Runtime, oid object.ID, n int64) {
	t.Helper()
	if err := writeOp(rt, oid, n); err != nil {
		t.Fatal(err)
	}
	if !rt.Store().Owns(oid) {
		t.Fatalf("node %d does not own %q after writing it", rt.Self(), oid)
	}
}

func readBox(t *testing.T, rt *Runtime, oid object.ID) int64 {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	var got int64
	if err := rt.Atomic(ctx, "r", func(tx *Txn) error {
		v, err := tx.Read(ctx, oid)
		if err != nil {
			return err
		}
		got = v.(*box).N
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestStaleHintFollowsForwardPointer: a requester whose hint names the old
// owner reaches the new owner through the old owner's forwarding pointer,
// with no home lookup at all.
func TestStaleHintFollowsForwardPointer(t *testing.T) {
	tc, counts := newCountingCluster(t, 3)
	if err := tc.rts[0].CreateRoot(context.Background(), "x", &box{N: 1}); err != nil {
		t.Fatal(err)
	}
	readBox(t, tc.rts[2], "x") // node 2's hint: node 0
	writeBox(t, tc.rts[1], "x", 5)

	counts.reset()
	if got := readBox(t, tc.rts[2], "x"); got != 5 {
		t.Fatalf("x = %d, want 5", got)
	}
	if n := counts.lookups(); n != 0 {
		t.Fatalf("stale hint cost %d home lookups, want 0", n)
	}
	if n := counts.get(KindRetrieve); n != 2 {
		t.Fatalf("retrieves = %d, want 2 (old owner, then new owner)", n)
	}
}

// TestForwardChainTwoMigrations: the object moved 0→1→2 while node 3's hint
// still says 0; node 3 follows both pointers without asking the home.
func TestForwardChainTwoMigrations(t *testing.T) {
	tc, counts := newCountingCluster(t, 4)
	if err := tc.rts[0].CreateRoot(context.Background(), "x", &box{N: 1}); err != nil {
		t.Fatal(err)
	}
	readBox(t, tc.rts[3], "x")
	writeBox(t, tc.rts[1], "x", 2)
	writeBox(t, tc.rts[2], "x", 3)

	counts.reset()
	if got := readBox(t, tc.rts[3], "x"); got != 3 {
		t.Fatalf("x = %d, want 3", got)
	}
	if n := counts.lookups(); n != 0 {
		t.Fatalf("two-hop chain cost %d home lookups, want 0", n)
	}
	if n := counts.get(KindRetrieve); n != 3 {
		t.Fatalf("retrieves = %d, want 3 (0, 1, then 2)", n)
	}
}

// TestForwardFallsBackToHome covers a migration in flight: node 0 has
// surrendered x to node 1 and points there, but node 1 has not installed it
// yet. Node 1's answer is unusable — no pointer, a pointer naming node 1
// itself, or a stale pointer back to node 0 that bounces the chase — so the
// requester must fall back to the home, and still reach x within
// maxOwnerHops once node 1 installs it. The install (with its home update)
// is triggered by the first home lookup, the moment the fallback happens.
func TestForwardFallsBackToHome(t *testing.T) {
	cases := []struct {
		name string
		at1  *migration // node 1's stale departure record, if any
	}{
		{"no pointer", nil},
		{"pointer names the node asked", &migration{tx: 1, to: 1}},
		{"pointers bounce", &migration{tx: 1, to: 0}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tc, counts := newCountingCluster(t, 3)
			ctx := context.Background()
			rt0, rt1, rt2 := tc.rts[0], tc.rts[1], tc.rts[2]
			if err := rt0.CreateRoot(ctx, "x", &box{N: 1}); err != nil {
				t.Fatal(err)
			}
			readBox(t, rt2, "x") // node 2's hint: node 0

			// Node 1's commit of x has migrated it out of node 0 but its
			// reply is still in flight.
			const committer = 0xc0
			ver, _ := rt0.Store().Version("x")
			if res := rt0.Store().Lock("x", committer, ver); res != object.LockOK {
				t.Fatalf("lock: %v", res)
			}
			if _, err := rt0.migrateOut("x", committer, 1); err != nil {
				t.Fatal(err)
			}
			if c.at1 != nil {
				rt1.migrMu.Lock()
				rt1.migrated["x"] = *c.at1
				rt1.migrMu.Unlock()
			}
			newVer := object.Version{Clock: rt1.clock.Tick(), Node: 1}
			var once sync.Once
			counts.setOnSend(func(m *transport.Message) error {
				if m.Kind == cc.KindLookup {
					once.Do(func() {
						rt1.Store().Install("x", &box{N: 9}, newVer)
						rt1.updateHomes(ctx, []object.ID{"x"}, newVer)
					})
				}
				return nil
			})

			counts.reset()
			if got := readBox(t, rt2, "x"); got != 9 {
				t.Fatalf("x = %d, want 9", got)
			}
			if counts.get(cc.KindLookup) == 0 {
				t.Fatal("the chase never fell back to the home")
			}
			if n := counts.get(KindRetrieve); n > maxOwnerHops {
				t.Fatalf("retrieves = %d, want ≤ maxOwnerHops (%d)", n, maxOwnerHops)
			}
			if m := rt2.Metrics().Snapshot(); m.Commits != 2 || m.TotalAborts() != 0 {
				t.Fatalf("reader commits=%d aborts=%d, want 2 and 0", m.Commits, m.TotalAborts())
			}
		})
	}
}

// TestBatchChasesFollowForwardPointers: the batched chase loops — ReadMany
// on the snapshot path, checkVersions and acquireAll in the commit — follow
// forwarding pointers from a stale hint without asking the home.
func TestBatchChasesFollowForwardPointers(t *testing.T) {
	tc, counts := newCountingCluster(t, 3)
	ctx := context.Background()
	rt0, rt1, rt2 := tc.rts[0], tc.rts[1], tc.rts[2]
	for _, oid := range []object.ID{"x", "y"} {
		if err := rt0.CreateRoot(ctx, oid, &box{N: 1}); err != nil {
			t.Fatal(err)
		}
	}
	writeBox(t, rt1, "x", 2)
	writeBox(t, rt1, "y", 3)
	stale := func() {
		rt2.Locator().NoteOwner("x", 0)
		rt2.Locator().NoteOwner("y", 0)
	}

	t.Run("ReadMany", func(t *testing.T) {
		stale()
		counts.reset()
		var got []object.Value
		if err := rt2.AtomicRO(ctx, "rm", func(tx *Txn) error {
			var err error
			got, err = tx.ReadMany(ctx, []object.ID{"x", "y"})
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if got[0].(*box).N != 2 || got[1].(*box).N != 3 {
			t.Fatalf("ReadMany = %v, %v; want 2, 3", got[0], got[1])
		}
		if n := counts.lookups(); n != 0 {
			t.Fatalf("ReadMany cost %d home lookups, want 0", n)
		}
	})

	// The commit-time loops run on a transaction whose read entries carry
	// the current versions while the hints still name the old owner.
	entries := func(t *testing.T, tx *Txn) []verEntry {
		var es []verEntry
		for _, oid := range []object.ID{"x", "y"} {
			ver, ok := rt1.Store().Version(oid)
			if !ok {
				t.Fatalf("node 1 lost %q", oid)
			}
			tx.entries[oid] = &objEntry{ver: ver, val: &box{}}
			es = append(es, verEntry{Oid: oid, Ver: ver})
		}
		return es
	}
	newTx := func() *Txn {
		tx := &Txn{rt: rt2, id: rt2.nextTxID(), lockID: rt2.nextTxID(), entries: make(map[object.ID]*objEntry)}
		tx.root = tx
		return tx
	}

	t.Run("checkVersions", func(t *testing.T) {
		tx := newTx()
		es := entries(t, tx)
		stale()
		counts.reset()
		oks, err := tx.checkVersions(ctx, es, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !oks[0] || !oks[1] {
			t.Fatalf("checkVersions = %v, want both current", oks)
		}
		if n := counts.lookups(); n != 0 {
			t.Fatalf("checkVersions cost %d home lookups, want 0", n)
		}
	})

	t.Run("acquireAll", func(t *testing.T) {
		tx := newTx()
		entries(t, tx)
		stale()
		counts.reset()
		locked := make(map[object.ID]transport.NodeID)
		if err := tx.acquireAll(ctx, []object.ID{"x", "y"}, locked, nil); err != nil {
			t.Fatal(err)
		}
		defer tx.releaseLocks(ctx, locked)
		if locked["x"] != 1 || locked["y"] != 1 {
			t.Fatalf("locked = %v, want both at node 1", locked)
		}
		if n := counts.lookups(); n != 0 {
			t.Fatalf("acquireAll cost %d home lookups, want 0", n)
		}
	})
}

// TestHomeUpdateFailureCounted: the commit returns once the migrated objects
// are installed, without waiting for the home update. An update that still
// fails after its retries leaves the commit successful, is counted in
// HomeUpdateFailures, and the object stays reachable through the old
// owner's forwarding pointer.
func TestHomeUpdateFailureCounted(t *testing.T) {
	tc, counts := newCountingCluster(t, 3)
	ctx := context.Background()
	if err := tc.rts[0].CreateRoot(ctx, "x", &box{N: 1}); err != nil {
		t.Fatal(err)
	}
	// The home update hangs until release, then fails.
	home := cc.HomeOf("x", 3)
	release := make(chan struct{})
	counts.setOnSend(func(m *transport.Message) error {
		if m.Kind == cc.KindUpdateBatch && m.To == home {
			<-release
			return errors.New("home unreachable")
		}
		return nil
	})
	done := make(chan error, 1)
	go func() { done <- writeOp(tc.rts[1], "x", 4) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(opTimeout):
		close(release)
		t.Fatal("the commit waited for its home update")
	}
	if tc.rts[1].Metrics().Snapshot().HomeUpdateFailures != 0 {
		t.Fatal("home update failure counted before the update failed")
	}
	close(release)
	waitFor(t, func() bool { return tc.rts[1].Metrics().Snapshot().HomeUpdateFailures == 1 })
	if m := tc.rts[1].Metrics().Snapshot(); m.Commits != 1 || m.CommitRounds == 0 {
		t.Fatalf("commits=%d rounds=%d, want a successful commit", m.Commits, m.CommitRounds)
	}

	// Node 2 has no hint: the home still names node 0, whose pointer leads
	// to node 1.
	if got := readBox(t, tc.rts[2], "x"); got != 4 {
		t.Fatalf("x = %d, want 4", got)
	}
}
