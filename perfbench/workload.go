package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// Cluster shape shared by every workload.
const (
	nodes           = 4
	workersPerNode  = 8
	accountsPerNode = 8
)

// workload is one named traffic mix over the bank application.
type workload struct {
	name string
	why  string
	// readFrac is the share of arrivals that are read-only audits.
	readFrac float64
	// mvcc routes audits onto the MVCC snapshot path instead of the
	// ownership protocol.
	mvcc bool
	// delayScale rescales the in-memory network's 1–50 ms link band.
	delayScale float64
	// rate is the offered load in transactions per second, cluster-wide.
	rate float64
}

var workloads = []workload{
	{
		name:     "bank-contended",
		why:      "high contention: 10% reads on the ownership path, so scheduler conflicts, retries, nested rollbacks and ownership migration dominate",
		readFrac: 0.1,
		// At 0.01 the 10-500 us link delays sit below the host's timer
		// wake-up jitter, which then sets the latency: in one set of ten
		// 30 s runs on a 2-vCPU VM, p50 spread 22% and p95 44% of their
		// medians. At 0.1 the links dominate. 25 tx/s keeps p95 well
		// below the knee (p95 roughly doubles at 40 tx/s).
		delayScale: 0.1,
		rate:       25,
	},
	{
		name:       "bank-readmostly",
		why:        "90% reads on the MVCC snapshot path: version chains and snapshot-read RPCs, with the scheduler nearly idle",
		readFrac:   0.9,
		mvcc:       true,
		delayScale: 0.01,
		rate:       400,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// arrival is one scheduled transaction.
type arrival struct {
	due     time.Duration // offset from the start of the schedule
	node    int
	read    bool
	keySeed int64
	// measured is false for warm-up arrivals.
	measured bool
}

// schedule draws the arrivals of a warm-up phase followed by a measured
// window, both at rate per second, from seed alone. Each phase holds
// exactly round(rate × length) arrivals at sorted uniform times, which is a
// Poisson process conditioned on its count: the offered load is the same on
// every seed while inter-arrival gaps stay exponential. Nodes are drawn
// uniformly, so each node sees a Poisson stream of a quarter of the rate.
func schedule(seed int64, rate, readFrac float64, warmup, window time.Duration) []arrival {
	rng := rand.New(rand.NewSource(seed))
	var out []arrival
	phase := func(from, length time.Duration, measured bool) {
		n := int(rate*length.Seconds() + 0.5)
		offs := make([]time.Duration, n)
		for i := range offs {
			offs[i] = from + time.Duration(rng.Int63n(int64(length)))
		}
		sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
		for _, at := range offs {
			out = append(out, arrival{
				due:      at,
				node:     rng.Intn(nodes),
				read:     rng.Float64() < readFrac,
				keySeed:  rng.Int63(),
				measured: measured,
			})
		}
	}
	phase(0, warmup, false)
	phase(warmup, window, true)
	return out
}
