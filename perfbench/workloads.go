package main

// workloads are the benchmark's three workloads. Each is one seeded,
// closed-loop client in one process; writes are interleaved on a fixed
// schedule in the same loop. An epoch (see run) is short enough that
// the state it serves from hardly drifts and long enough that its
// warm-up is a small share of it: 1 to 5 s on a 2-core machine.
var workloads = map[string]*spec{
	// hot_read: a single-node core.Engine. The parameter set fits the
	// plan cache, so after warm-up every lookup hits and the time goes
	// to plan execution and index probes.
	"hot_read": {
		name: "hot_read", hot: 128, queriesPerApply: 100, epochRounds: 100,
		open: openInproc(1), reopen: reopenInproc(1),
	},
	// churn_sharded: an in-process shard.Engine with K=2. The queries
	// cycle over every (district, date) pair, more than the plan cache
	// holds, so nearly every query re-plans; a delta every few queries
	// puts the two-phase apply and the WAL in front.
	"churn_sharded": {
		name: "churn_sharded", hot: 0, queriesPerApply: 4, epochRounds: 250,
		open: openInproc(2), reopen: reopenInproc(2),
	},
	// fleet_http: the HTTP frontend over a coordinator and K=2 loopback
	// nodes. Every fetch key is an RPC.
	"fleet_http": {
		name: "fleet_http", hot: 64, queriesPerApply: 3, epochRounds: 100,
		open: openFleet, reopen: reopenFleet,
	},
}
