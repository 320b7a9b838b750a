package main

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// opFunc executes one arrival on its node's runtime.
type opFunc func(ctx context.Context, a arrival) error

// driveConfig is one open-loop run over a precomputed schedule.
type driveConfig struct {
	arrivals []arrival
	op       opFunc
	// drainCap bounds how long after the last due time in-flight and
	// queued ops may still finish. Ops unfinished by then are cancelled
	// and count as failed.
	drainCap time.Duration
	// grace bounds the wait for workers to return once the cap cancelled
	// their ops; a worker still running after it is reported as stuck.
	grace time.Duration
	// atWindow, if set, runs on the generator just before the first
	// measured arrival is admitted (to take counter baselines).
	atWindow func()
	// atCap, if set, runs when the drain cap passes with ops unfinished,
	// before they are cancelled (to capture why they are stuck).
	atCap func()
	// sample, if set, runs every sampleEvery from the first to the last
	// measured due time.
	sample      func()
	sampleEvery time.Duration
}

// opRecord is one arrival's outcome, in nanoseconds since the schedule
// started. The worker writes err before storing end, so a reader that
// sees end != 0 may read err.
type opRecord struct {
	pickup atomic.Int64 // 0: never picked up
	end    atomic.Int64 // 0: unfinished
	err    error
}

// driveResult is what an open-loop run leaves for reporting.
type driveResult struct {
	start time.Time // the schedule's time zero
	recs  []opRecord
	late  []time.Duration // generator lateness per arrival
	// stuck is set when workers were still running after the grace period.
	stuck bool
}

// leadIn separates starting the workers from the first due time.
const leadIn = 20 * time.Millisecond

// drive runs cfg's schedule open loop: a generator admits each arrival to
// its node's queue at its due time, whatever the state of earlier ones,
// and workersPerNode workers per node take from that queue. It returns
// once every op has finished or the drain cap has passed.
func drive(ctx context.Context, cfg driveConfig) *driveResult {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	n := len(cfg.arrivals)
	res := &driveResult{recs: make([]opRecord, n), late: make([]time.Duration, n)}
	var lastDue time.Duration
	perNode := make([]int, nodes)
	for _, a := range cfg.arrivals {
		perNode[a.node]++
		lastDue = a.due
	}
	queues := make([]chan int, nodes)
	for i := range queues {
		// Sized to the node's arrivals so admission never blocks the
		// generator: a backlog is the queue growing, not the load thinning.
		queues[i] = make(chan int, perNode[i])
	}

	var remaining atomic.Int64
	remaining.Store(int64(n))
	allDone := make(chan struct{})
	if n == 0 {
		close(allDone)
	}
	start := time.Now().Add(leadIn)
	res.start = start
	since := func() int64 { return max(int64(time.Since(start)), 1) }

	var workers sync.WaitGroup
	for node := 0; node < nodes; node++ {
		for w := 0; w < workersPerNode; w++ {
			workers.Add(1)
			go func(q <-chan int) {
				defer workers.Done()
				for {
					select {
					case <-ctx.Done():
						return
					case i, ok := <-q:
						if !ok {
							return
						}
						r := &res.recs[i]
						r.pickup.Store(since())
						r.err = cfg.op(ctx, cfg.arrivals[i])
						r.end.Store(since())
						if remaining.Add(-1) == 0 {
							close(allDone)
						}
					}
				}
			}(queues[node])
		}
	}

	var helpers sync.WaitGroup
	helpers.Add(1)
	go func() {
		defer helpers.Done()
		defer func() {
			for _, q := range queues {
				close(q)
			}
		}()
		// The generator sleeps in system calls on a thread of its own, so
		// its wake-ups neither wait for a runtime timer nor take a P.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		inWindow := false
		for i, a := range cfg.arrivals {
			for d := time.Until(start.Add(a.due)); d > 0; d = time.Until(start.Add(a.due)) {
				sleepPrecise(d)
			}
			if ctx.Err() != nil {
				return
			}
			if a.measured && !inWindow {
				inWindow = true
				if cfg.atWindow != nil {
					cfg.atWindow()
				}
			}
			res.late[i] = time.Since(start.Add(a.due))
			queues[a.node] <- i
		}
	}()
	if cfg.sample != nil {
		first := lastDue
		for _, a := range cfg.arrivals {
			if a.measured {
				first = a.due
				break
			}
		}
		helpers.Add(1)
		go func() {
			defer helpers.Done()
			select {
			case <-ctx.Done():
				return
			case <-time.After(time.Until(start.Add(first))):
			}
			tick := time.NewTicker(cfg.sampleEvery)
			defer tick.Stop()
			for time.Since(start) < lastDue {
				cfg.sample()
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
				}
			}
		}()
	}

	capTimer := time.NewTimer(time.Until(start.Add(lastDue + cfg.drainCap)))
	defer capTimer.Stop()
	select {
	case <-allDone:
	case <-capTimer.C:
		if cfg.atCap != nil {
			cfg.atCap()
		}
	case <-ctx.Done():
	}
	cancel()
	helpers.Wait()
	stopped := make(chan struct{})
	// This watcher outlives drive only when a worker is stuck in an op
	// that ignores cancellation; the run then reports it as stuck.
	go func() {
		workers.Wait()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(cfg.grace):
		res.stuck = true
	}
	return res
}
