package main

import (
	"strings"
	"time"

	"repro/internal/core"
)

// counters is one reading of every per-layer counter the program
// exposes; the window's metrics are differences of two readings.
type counters struct {
	pcHits, pcMisses     uint64 // optimizer plan cache, all CNs
	msgs                 int64  // simnet deliveries, all endpoints
	dnRPCs               uint64 // DN leader requests served
	flushes, groupedMTRs int64  // Paxos leader redo flushes / MTRs they covered
	quorumWait           time.Duration
	quorumWaits          int64
	commits, aborts      int64 // txn registry outcomes
	scanBytes            int64 // column-index bytes scanned
	apRounds, demotions  int64 // htap scheduler slices run / jobs demoted
}

func snapshot(c *core.Cluster) counters {
	var k counters
	for _, cn := range c.CNs() {
		h, m := cn.PlanCacheStats()
		k.pcHits += h
		k.pcMisses += m
		sch := cn.Scheduler()
		k.apRounds += sch.AP.Rounds() + sch.Slow.Rounds()
		k.demotions += sch.TP.Demotions() + sch.AP.Demotions() + sch.Slow.Demotions()
	}
	for _, ep := range c.Net.Endpoints() {
		k.msgs += c.Net.MessageCount(ep)
	}
	for _, inst := range leaders(c) {
		pr, mg, w, mw := inst.RPCStats()
		k.dnRPCs += pr + mg + w + mw
		pm := inst.Paxos().MetricsSnapshot()
		k.flushes += pm.Flushes
		k.groupedMTRs += pm.GroupedMTRs
	}
	// The registry is nil, and every reading 0, unless Config.Metrics.
	reg := c.Metrics()
	qw := reg.Histogram("paxos.quorum_wait")
	k.quorumWait, k.quorumWaits = qw.Sum(), qw.Count()
	k.commits = reg.Counter("txn.commit").Value()
	k.aborts = reg.Counter("txn.abort").Value()
	k.scanBytes = reg.Counter("colindex.scan_bytes").Value()
	return k
}

// ratio is a/b, or 0 when b is 0 (the layer saw no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// selfPerOp sums the self time of every folded span whose own name (the
// last element of its path) is one of names, in µs per op.
func (f fold) selfPerOp(ops int64, names ...string) float64 {
	var self int64
	for path, st := range f {
		last := path[strings.LastIndexByte(path, '/')+1:]
		for _, n := range names {
			if last == n {
				self += st.SelfNs
			}
		}
	}
	return ratio(float64(self)/1e3, float64(ops))
}

// rpcsPerOp counts branch RPC and 2PC phase spans per op.
func (f fold) rpcsPerOp(ops int64) float64 {
	var n int64
	for _, st := range f {
		if st.RPC {
			n += st.Count
		}
	}
	return ratio(float64(n), float64(ops))
}

// perLayer computes the per-layer metrics: span self times and counter
// deltas from the traced window win on env e, runtime counters and the
// tracing overhead against the untraced window plain.
func perLayer(e *env, win, plain *window) map[string]metric {
	ops := win.attempted
	per := func(v float64) float64 { return ratio(v, float64(ops)) }
	d := win.after
	b := win.before
	pOps := float64(plain.attempted)
	return map[string]metric{
		"core.self_us":                  {win.spans.selfPerOp(ops, "stmt", "COMMIT"), "us"},
		"sql.parse_us":                  {per(us(win.parse)), "us"},
		"optimizer.plan_us":             {win.spans.selfPerOp(ops, "plan"), "us"},
		"optimizer.plancache_hit_ratio": {ratio(float64(d.pcHits-b.pcHits), float64(d.pcHits-b.pcHits+d.pcMisses-b.pcMisses)), "ratio"},
		"txn.read_rpc_us":               {win.spans.selfPerOp(ops, "rpc get", "rpc multiget", "rpc scan"), "us"},
		"txn.write_rpc_us":              {win.spans.selfPerOp(ops, "rpc insert", "rpc update", "rpc delete", "rpc multiwrite"), "us"},
		"txn.prepare_us":                {win.spans.selfPerOp(ops, "prepare"), "us"},
		"txn.commit_point_us":           {win.spans.selfPerOp(ops, "commit-point"), "us"},
		"txn.commit_us":                 {win.spans.selfPerOp(ops, "commit", "commit-1pc"), "us"},
		"txn.rpcs_per_op":               {win.spans.rpcsPerOp(ops), "count"},
		"txn.abort_ratio":               {ratio(float64(d.aborts-b.aborts), float64(d.commits-b.commits+d.aborts-b.aborts)), "ratio"},
		"simnet.msgs_per_op":            {per(float64(d.msgs - b.msgs)), "count"},
		"dn.rpcs_per_op":                {per(float64(d.dnRPCs - b.dnRPCs)), "count"},
		"paxos.quorum_wait_us":          {ratio(us(d.quorumWait-b.quorumWait), float64(d.quorumWaits-b.quorumWaits)), "us"},
		"paxos.mtrs_per_flush":          {ratio(float64(d.groupedMTRs-b.groupedMTRs), float64(d.flushes-b.flushes)), "count"},
		"paxos.flushes_per_commit":      {ratio(float64(d.flushes-b.flushes), float64(d.commits-b.commits)), "count"},
		"ro.catchup_ms":                 {ms(e.st.catchup), "ms"},
		"ro.max_lag_bytes":              {float64(e.lag.close()), "bytes"},
		"ro.evicted":                    {float64(evictedROs(e.c)), "count"},
		"htap.ap_rounds_per_query":      {per(float64(d.apRounds - b.apRounds)), "count"},
		"htap.demotions":                {float64(d.demotions - b.demotions), "count"},
		"colindex.scan_mb_per_query":    {per(float64(d.scanBytes-b.scanBytes) / 1e6), "MB"},
		"colindex.footprint_mb":         {float64(columnIndexFootprint(e.c)) / 1e6, "MB"},
		"runtime.allocs_per_op":         {ratio(float64(plain.mem1.Mallocs-plain.mem0.Mallocs), pOps), "count"},
		"runtime.bytes_per_op":          {ratio(float64(plain.mem1.TotalAlloc-plain.mem0.TotalAlloc), pOps), "bytes"},
		"runtime.gc_per_kop":            {ratio(1000*float64(plain.mem1.NumGC-plain.mem0.NumGC), pOps), "count"},
		"runtime.retained_bytes_per_op": {ratio(float64(int64(plain.heapEnd)-int64(plain.heapSetup)), pOps), "bytes"},
		"tracing.overhead_ratio":        {ratio(plain.opsPerSec(), win.opsPerSec()), "ratio"},
	}
}

func evictedROs(c *core.Cluster) int {
	n := 0
	for _, inst := range leaders(c) {
		n += len(inst.EvictedROs())
	}
	return n
}

// columnIndexFootprint sums the encoded size of every column index on
// every RO.
func columnIndexFootprint(c *core.Cluster) int {
	total := 0
	for _, inst := range leaders(c) {
		for _, ro := range inst.ROs() {
			for _, t := range c.GMS.Tables() {
				for shard := 0; shard < t.Shards; shard++ {
					if ix, ok := ro.ColumnIndex(t.PhysicalTableID(shard)); ok {
						total += ix.FootprintBytes()
					}
				}
			}
		}
	}
	return total
}
