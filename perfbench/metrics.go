package main

// metricDef describes one printed metric. moves names the end-to-end
// metric and workload a per-layer metric is expected to move.
// BENCHMARK.json lists the same names and units, and holds each metric's
// direction and bound.
type metricDef struct {
	name, unit string
	moves      string
}

var endToEndDefs = []metricDef{
	{name: "p50_ms", unit: "ms"},
	{name: "read_p50_ms", unit: "ms"},
	{name: "write_p50_ms", unit: "ms"},
	{name: "worst_node_p50_ms", unit: "ms"},
	{name: "goodput_tps", unit: "1/s"},
	{name: "completed_frac", unit: "frac"},
	{name: "setup_s", unit: "s"},
}

const (
	contended  = "bank-contended"
	readmostly = "bank-readmostly"
)

var perLayerDefs = []metricDef{
	// driver
	{name: "driver.ops", unit: "count", moves: "base of every per-op ratio"},
	{name: "driver.read_ops", unit: "count", moves: "base of read_p50_ms"},
	{name: "driver.write_ops", unit: "count", moves: "base of write_p50_ms"},
	{name: "driver.offered_tps", unit: "1/s", moves: "stamp: offered rate"},
	{name: "driver.failed_frac", unit: "frac", moves: "completed_frac, all workloads"},
	{name: "driver.admit_wait_p99_ms", unit: "ms", moves: "driver.p95_ms and driver.p99_ms, all workloads, rising near the knee"},
	{name: "driver.p95_ms", unit: "ms", moves: "untraced sojourn p95; shifts with host load by more than any bound allows"},
	{name: "driver.beyond_p95", unit: "count", moves: "base of driver.p95_ms: samples beyond it"},
	{name: "driver.p99_ms", unit: "ms", moves: "untraced sojourn p99; shifts with host load by more than any bound allows"},
	{name: "driver.beyond_p99", unit: "count", moves: "base of driver.p99_ms: samples beyond it"},
	{name: "driver.gen_late_max_ms", unit: "ms", moves: "validity check: must stay well below p50_ms"},
	// tracing itself
	{name: "trace.overhead_p50_ms", unit: "ms", moves: "traced p50_ms minus untraced p50_ms"},
	{name: "trace.untraced_p50_ms", unit: "ms", moves: "base of trace.overhead_p50_ms"},
	{name: "trace.spans", unit: "count", moves: "base: spans written"},
	// stm
	{name: "stm.service_p50_ms", unit: "ms", moves: "p50_ms, all workloads"},
	{name: "stm.attempts_per_op", unit: "attempts/op", moves: "write_p50_ms on " + contended},
	{name: "stm.aborts_per_op.denied", unit: "aborts/op", moves: "write_p50_ms on " + contended},
	{name: "stm.aborts_per_op.validation", unit: "aborts/op", moves: "write_p50_ms on " + contended},
	{name: "stm.aborts_per_op.lock_failed", unit: "aborts/op", moves: "write_p50_ms on " + contended},
	{name: "stm.aborts_per_op.queue_timeout", unit: "aborts/op", moves: "write_p50_ms on " + contended},
	{name: "stm.aborts_per_op.snapshot", unit: "aborts/op", moves: "read_p50_ms on " + readmostly},
	{name: "stm.read_msgs_per_ro_commit", unit: "msgs/commit", moves: "read_p50_ms on " + readmostly},
	{name: "stm.nested_parent_frac", unit: "frac", moves: "write_p50_ms on " + contended},
	{name: "stm.commit_msgs_per_commit", unit: "msgs/commit", moves: "write_p50_ms on " + contended},
	{name: "stm.commit_rounds_per_commit", unit: "rounds/commit", moves: "write_p50_ms on " + contended},
	{name: "stm.retrieves_per_op", unit: "msgs/op", moves: "p50_ms on " + contended},
	{name: "stm.attempts", unit: "count", moves: "base of stm.attempts_per_op"},
	{name: "stm.commits", unit: "count", moves: "base of the per-commit ratios"},
	{name: "stm.ro_commits", unit: "count", moves: "base of stm.read_msgs_per_ro_commit"},
	{name: "stm.nested_aborts", unit: "count", moves: "base of stm.nested_parent_frac"},
	// cluster (transport decorator)
	{name: "cluster.msgs_per_op", unit: "msgs/op", moves: "p50_ms, all workloads"},
	{name: "cluster.msgs", unit: "count", moves: "base of cluster.msgs_per_op"},
}

// rpcGroups are the message groups whose round trips are split into
// network and handler time, with the workload each dominates.
var rpcGroups = []struct {
	group msgGroup
	moves string
}{
	{groupRetrieve, "p50_ms on " + contended},
	{groupCommit, "write_p50_ms on " + contended},
	{groupSnapRead, "read_p50_ms on " + readmostly},
	{groupDir, "write_p50_ms on " + contended},
}

func init() {
	for _, g := range rpcGroups {
		p := "cluster." + groupNames[g.group]
		perLayerDefs = append(perLayerDefs,
			metricDef{name: p + ".calls", unit: "count", moves: "base of " + p + " percentiles"},
			metricDef{name: p + ".rtt_p50_us", unit: "us", moves: g.moves},
			metricDef{name: p + ".handler_p50_us", unit: "us", moves: g.moves},
			metricDef{name: p + ".net_p50_us", unit: "us", moves: g.moves},
		)
	}
	perLayerDefs = append(perLayerDefs, []metricDef{
		// cc
		{name: "cc.dir_msgs_per_op", unit: "msgs/op", moves: "write_p50_ms and worst_node_p50_ms on " + contended},
		{name: "cc.dir_msgs", unit: "count", moves: "base of cc.dir_msgs_per_op"},
		// object
		{name: "object.owned_max_share", unit: "frac", moves: "worst_node_p50_ms on " + contended + " (0.25 is even)"},
		{name: "object.objects", unit: "count", moves: "base of object.owned_max_share"},
		{name: "object.snap_reads_per_op", unit: "reads/op", moves: "read_p50_ms on " + readmostly},
		{name: "object.snap_reads", unit: "count", moves: "base of object.snap_reads_per_op"},
		// core/sched (policy decorator)
		{name: "sched.conflicts_per_op", unit: "conflicts/op", moves: "write_p50_ms and driver.p95_ms on " + contended},
		{name: "sched.enqueue_frac", unit: "frac", moves: "write_p50_ms and driver.p95_ms on " + contended},
		{name: "sched.push_per_enqueue", unit: "pushes/enqueue", moves: "write_p50_ms and driver.p95_ms on " + contended},
		{name: "sched.queue_depth_mean", unit: "reqs", moves: "write_p50_ms and driver.p95_ms on " + contended},
		{name: "sched.decide_p50_us", unit: "us", moves: "write_p50_ms and driver.p95_ms on " + contended},
		{name: "sched.conflicts", unit: "count", moves: "base of sched.conflicts_per_op and sched.enqueue_frac"},
		{name: "sched.enqueues", unit: "count", moves: "base of sched.push_per_enqueue"},
		{name: "sched.useful_pushes", unit: "count", moves: "hand-offs not declined"},
		{name: "sched.queue_samples", unit: "count", moves: "base of sched.queue_depth_mean"},
	}...)
}
