package main

import (
	"context"
	"fmt"
	"io"
	"runtime/pprof"
	"time"

	"dstm/internal/apps/bank"
	"dstm/internal/cluster"
	"dstm/internal/core"
	"dstm/internal/sched"
	"dstm/internal/stats"
	"dstm/internal/stm"
	"dstm/internal/transport"
	"dstm/internal/vclock"
)

// decorators wrap each node's transport and scheduler as the cluster is
// assembled. A nil field leaves that layer bare.
type decorators struct {
	transport func(node int, tr transport.Transport) transport.Transport
	policy    func(node int, p sched.Policy) sched.Policy
}

// benchCluster is one assembled cluster running the bank application.
type benchCluster struct {
	net  *transport.Network
	rts  []*stm.Runtime
	pols []sched.Policy // as installed, decorated or not
	bank *bank.Bank
}

// latencySeed fixes the in-memory link-delay topology, so runs on
// different seeds measure the same cluster and differ only in arrivals.
const latencySeed = 1

// rtsCLWindow is the RTS contention window: 500 ms at the paper's full
// delay scale, scaled with the links as the harness does.
func rtsCLWindow(delayScale float64) time.Duration {
	return max(time.Duration(float64(500*time.Millisecond)*delayScale), time.Millisecond)
}

// newCluster assembles nodes for w from public constructors, wraps each
// layer with deco, and seeds the bank accounts.
func newCluster(ctx context.Context, w workload, deco decorators) (*benchCluster, error) {
	c := &benchCluster{net: transport.NewNetwork(transport.MetricLatency{
		Min:   time.Millisecond,
		Max:   50 * time.Millisecond,
		Scale: w.delayScale,
		Seed:  latencySeed,
	})}
	for i := 0; i < nodes; i++ {
		var tr transport.Transport = c.net.Endpoint(transport.NodeID(i))
		if deco.transport != nil {
			tr = deco.transport(i, tr)
		}
		var pol sched.Policy = core.New(core.Options{CLThreshold: core.DefaultCLThreshold, CLWindow: rtsCLWindow(w.delayScale)})
		if deco.policy != nil {
			pol = deco.policy(i, pol)
		}
		rt := stm.NewRuntime(cluster.NewEndpoint(tr, &vclock.Clock{}), nodes, pol, stats.NewTable(time.Millisecond))
		rt.SetReadOnlyReads(w.mvcc)
		c.rts = append(c.rts, rt)
		c.pols = append(c.pols, pol)
	}
	c.bank = bank.New(bank.Options{AccountsPerNode: accountsPerNode})
	if err := c.bank.Setup(ctx, c.rts); err != nil {
		c.close()
		return nil, fmt.Errorf("bank setup: %w", err)
	}
	return c, nil
}

func (c *benchCluster) close() { c.net.Close() }

// metrics sums the runtimes' transaction counters.
func (c *benchCluster) metrics() stm.MetricsSnapshot {
	var total stm.MetricsSnapshot
	for _, rt := range c.rts {
		total.Merge(rt.Metrics().Snapshot())
	}
	return total
}

// queueDepth sums the parked requesters over every node's scheduler.
func (c *benchCluster) queueDepth() int {
	total := 0
	for _, p := range c.pols {
		if q, ok := p.(sched.QueueDepther); ok {
			total += q.QueueDepth()
		}
	}
	return total
}

// ownedMaxShare is the largest share of all objects owned by one node.
func (c *benchCluster) ownedMaxShare() float64 {
	total, most := 0, 0
	for _, rt := range c.rts {
		n := rt.Store().Len()
		total += n
		if n > most {
			most = n
		}
	}
	if total == 0 {
		return 0
	}
	return float64(most) / float64(total)
}

// dumpStuck writes, for a run whose ops did not finish, every commit-locked
// account with its owner and locking transaction, then every goroutine's
// stack.
func (c *benchCluster) dumpStuck(w io.Writer) {
	fmt.Fprintln(w, "perfbench: ops unfinished; commit-locked accounts:")
	for i := 0; i < c.bank.Accounts(); i++ {
		id := bank.AccountID(i)
		for n, rt := range c.rts {
			if ver, tx, ok := rt.Store().State(id); ok && tx != 0 {
				fmt.Fprintf(w, "  %s owner %d version %v locked by tx %d\n", id, n, ver, tx)
			}
		}
	}
	fmt.Fprintln(w, "perfbench: goroutines:")
	_ = pprof.Lookup("goroutine").WriteTo(w, 1) // best-effort diagnostics
}
