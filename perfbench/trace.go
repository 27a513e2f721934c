package main

import (
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// layers accumulates the per-layer figures of a traced run. Times come
// from the span trees the program emits through obs, aggregated by
// span name as self time (a span's elapsed time minus its children's);
// counts come from the benchmark's own counters around each call.
type layers struct {
	// sampling is set on traced runs: the untraced half of the run
	// samples the Go runtime's counters.
	sampling bool
	// queries and applies count the traced operations.
	queries, applies int64

	// Query path, from the request span trees.
	planNS, fetchNS, joinNS, dedupNS int64
	fetchKeys, fetched, bound        int64
	routeKeys, scatterKeys           int64
	// scatterNS is the self time of fetch steps that scatter to every
	// shard or node (probe each, merge the buckets).
	scatterNS int64
	// coordFetchNS is the coordinator's fetch self time; with the RPC
	// busy time taken out it is the coordinator-side cost of a
	// networked fetch (fan-out, bucket decode and merge).
	coordFetchNS int64

	// Apply path.
	stageNS, validateNS, commitNS, walNS int64
	deltaTuples                          int64

	// Coordinator RPCs (fleet only).
	queryRPC, applyRPC rpcCounts

	// HTTP frontend (fleet only).
	serverOverheadNS, respBytes int64

	// Go runtime, over the untraced half of a traced run.
	allocQuery, allocApply int64
	gcCycles               int64
}

// rpcCounts are cumulative coordinator→node RPC counters.
type rpcCounts struct {
	calls int64
	bytes int64 // request plus response bodies
	// busyNS is the wall time during which at least one RPC was in
	// flight; commitNS is the node-side handling time of commit RPCs
	// (WAL append and fsync, then publish), summed over nodes.
	busyNS   int64
	commitNS int64
}

func (c rpcCounts) sub(o rpcCounts) rpcCounts {
	return rpcCounts{c.calls - o.calls, c.bytes - o.bytes, c.busyNS - o.busyNS, c.commitNS - o.commitNS}
}

func (c *rpcCounts) add(o rpcCounts) {
	c.calls += o.calls
	c.bytes += o.bytes
	c.busyNS += o.busyNS
	c.commitNS += o.commitNS
}

// selfNS is s's elapsed time not covered by its children.
func selfNS(s *obs.Span) int64 {
	n := s.ElapsedNS
	for _, c := range s.Children {
		n -= c.ElapsedNS
	}
	if n < 0 {
		return 0
	}
	return n
}

// stepOf parses the plan step index from a step span's detail
// ("T3 = fetch(...)"); -1 when the detail names no step.
func stepOf(detail string) int {
	rest, ok := strings.CutPrefix(detail, "T")
	if !ok {
		return -1
	}
	num, _, ok := strings.Cut(rest, " = ")
	if !ok {
		return -1
	}
	i, err := strconv.Atoi(num)
	if err != nil {
		return -1
	}
	return i
}

func (ly *layers) addQuery(a answer, lat time.Duration, rpc rpcCounts) {
	ly.queries++
	ly.fetchKeys += a.keys
	ly.fetched += a.fetched
	ly.bound += a.bound
	ly.queryRPC.add(rpc)
	if a.respBytes > 0 {
		ly.respBytes += a.respBytes
		ly.serverOverheadNS += int64(lat - a.serverElapsed)
	}
	var fetchNS int64
	a.root.Walk(func(s *obs.Span) {
		self := selfNS(s)
		name := s.Name
		switch {
		case name == "plan":
			ly.planNS += self
		case name == "fetch":
			fetchNS += self
			if i := stepOf(s.Detail); i >= 0 && i < len(a.scattered) && a.scattered[i] {
				ly.scatterNS += self
			}
		case name == "join" || name == "product":
			ly.joinNS += self
		case strings.HasSuffix(name, "+stream+dedup"):
			ly.dedupNS += self
		case name == "shard.merge" || name == "cluster.merge":
			ly.scatterNS += self
		case strings.HasSuffix(name, " route"):
			ly.routeKeys += s.Keys
		case strings.HasSuffix(name, " scatter"):
			ly.scatterKeys += s.Keys
		}
	})
	ly.fetchNS += fetchNS
	if rpc.calls > 0 {
		ly.coordFetchNS += fetchNS
	}
}

func (ly *layers) addApply(root *obs.Span, tuples int, rpc rpcCounts) {
	ly.applies++
	ly.deltaTuples += int64(tuples)
	ly.applyRPC.add(rpc)
	root.Walk(func(s *obs.Span) {
		switch s.Name {
		case "apply.stage":
			ly.stageNS += selfNS(s)
		case "apply.validate":
			ly.validateNS += selfNS(s)
		case "apply.commit":
			ly.commitNS += selfNS(s)
		case "wal.append+fsync":
			ly.walNS += selfNS(s)
		}
	})
}

// put reports every per-layer metric. Layers a workload does not go
// through (no shards on a single node, no RPCs in process) read 0.
func (ly *layers) put(put func(string, float64, string), plain segment, hits, misses int64) {
	q := float64(max(ly.queries, 1))
	a := float64(max(ly.applies, 1))
	us := func(ns int64) float64 { return float64(ns) / 1e3 / q }
	msA := func(ns int64) float64 { return float64(ns) / 1e6 / a }

	if hits+misses > 0 {
		put("core.plan_cache_hit_ratio", float64(hits)/float64(hits+misses), "ratio")
	} else {
		put("core.plan_cache_hit_ratio", 0, "ratio")
	}
	put("core.plan_us_per_query", us(ly.planNS), "us")
	put("plan.fetch_us_per_query", us(ly.fetchNS), "us")
	put("plan.join_us_per_query", us(ly.joinNS), "us")
	put("plan.dedup_us_per_query", us(ly.dedupNS), "us")
	put("plan.fetch_keys_per_query", float64(ly.fetchKeys)/q, "keys")
	put("plan.bound_per_query", float64(ly.bound)/q, "tuples")
	if ly.bound > 0 {
		put("plan.fetched_over_bound", float64(ly.fetched)/float64(ly.bound), "ratio")
	} else {
		put("plan.fetched_over_bound", 0, "ratio")
	}

	put("live.stage_ms_per_apply", msA(ly.stageNS), "ms")
	put("live.validate_ms_per_apply", msA(ly.validateNS), "ms")
	put("live.commit_ms_per_apply", msA(ly.commitNS), "ms")
	if ly.deltaTuples > 0 {
		put("live.us_per_delta_tuple", float64(ly.stageNS+ly.validateNS+ly.commitNS)/1e3/float64(ly.deltaTuples), "us")
	} else {
		put("live.us_per_delta_tuple", 0, "us")
	}
	// On the fleet the WAL is written by the nodes' commit handlers.
	put("durable.fsync_ms_per_apply", msA(ly.walNS+ly.applyRPC.commitNS), "ms")

	put("shard.merge_us_per_query", us(ly.scatterNS), "us")
	put("shard.route_keys_per_query", float64(ly.routeKeys)/q, "keys")
	put("shard.scatter_keys_per_query", float64(ly.scatterKeys)/q, "keys")

	put("cluster.rpcs_per_query", float64(ly.queryRPC.calls)/q, "count")
	put("cluster.rpc_kb_per_query", float64(ly.queryRPC.bytes)/1024/q, "KB")
	put("cluster.rpc_ms_per_query", float64(ly.queryRPC.busyNS)/1e6/q, "ms")
	put("cluster.merge_us_per_query", us(max(ly.coordFetchNS-ly.queryRPC.busyNS, 0)), "us")
	put("cluster.rpcs_per_apply", float64(ly.applyRPC.calls)/a, "count")

	put("server.overhead_ms_per_query", float64(ly.serverOverheadNS)/1e6/q, "ms")
	put("server.response_kb_per_query", float64(ly.respBytes)/1024/q, "KB")

	pq, pa := float64(max(plain.queries, 1)), float64(max(plain.applies, 1))
	put("go.alloc_kb_per_query", float64(ly.allocQuery)/1024/pq, "KB")
	put("go.gc_cycles_per_kop", float64(ly.gcCycles)*1000/float64(max(plain.queries+plain.applies, 1)), "count")
	put("go.alloc_mb_per_apply", float64(ly.allocApply)/(1<<20)/pa, "MB")
}
