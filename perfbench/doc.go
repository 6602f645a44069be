// Command perfbench is the repository's benchmark: three workloads, each
// driven from one process against an in-process cluster through the
// public core.Session API. Run it from the repository root:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Lines before it carry the
// provenance (commit, source hash, Go version, GOMAXPROCS, nproc, seed
// and the host's measured timer floor), the latency sample counts, ops
// per second of the window, and on traced runs the folded span table.
//
// BENCHMARK.json lists oltp-point and oltp-write, the workloads whose
// runs pass reliably. tpch-ap is built in but not listed: its set-up
// fails in a large share of runs, either with "RO convergence timeout"
// or with a lineitem count on the AP replicas short of the rows loaded,
// both from the out-of-order RO redo apply. It is to be listed once RO
// apply is fixed.
//
// # Cluster and load model
//
// Every workload runs on the paper's three-DC deployment: two DN
// groups, each a Paxos group with one member per DC, two CNs per DC,
// at zero simulated RTT. On small hosts every Go sleep below 1 ms costs
// about 1.09 ms, so a simulated microsecond-scale hop would measure the
// timer rather than the program. Load is a closed loop of one session
// per CPU, spread round-robin over the CNs, with no think time. Inputs
// come from --seed; keys are drawn uniformly. Data is memory resident,
// and every statement shape fits the 512-entry plan cache.
//
// # Workloads
//
//   - oltp-point: 20,000-row sysbench sbtest in 8 partitions. Each op is
//     one auto-commit "SELECT c FROM sbtest WHERE id = <id>" sent as SQL
//     text. It runs the CN statement path at CPU speed (parse,
//     fingerprint, plan cache, routing, one DN point RPC, storage get)
//     and bypasses WAL, Paxos, ROs and the executor.
//   - oltp-write: the same table. Each op is one sysbench
//     oltp_write_only transaction: an index update, a non-index update
//     and a delete+insert on three distinct uniform ids, so most
//     transactions commit by 2PC across both DN groups. Its four
//     statements are prepared once per session, so no op parses or
//     plans. It runs 2PC, WAL, Paxos group commit and shipping to two
//     followers. Each client draws ids from its own residue class, so
//     concurrent clients never write one row and no op fails on an SI
//     write-write conflict.
//   - tpch-ap: TPC-H SF 2 (12,000 lineitem rows, 8 partitions) in
//     Fig. 10's column-index configuration: one RO per DN group as the
//     AP target, column indexes on lineitem, orders, partsupp, part,
//     customer and supplier, MPP on, every query planned for AP. The
//     database is the same for every --seed, as dbgen's is, so every
//     query costs the same; each session runs rounds of the 22 queries,
//     each round in a fresh seed-shuffled order, so which queries run
//     side by side changes from round to round. It runs full optimizer
//     planning, MPP fragments, the vectorized and
//     encoded kernels, the column index and the HTAP scheduler; RO redo
//     apply runs during set-up. The TP layers idle.
//
// # End-to-end metrics (--trace 0)
//
// Measured with tracing and metrics off on four clusters in turn, each
// in a child process of its own (the benchmark runs its own executable
// with --instance): each is built, loaded and warmed, measured for a
// quarter of --seconds, checked and stopped, and runs from set-up to
// the end of its window without a restart. Each metric is the median over the four clusters
// (ok_ratio counts every op of the four): one cluster's run can settle
// into a slower state than the next, and oltp-write's p99 moves by a
// third between clusters, so one cluster would report that state, not
// the program.
//
//	setup_s       cluster build, load, RO convergence and column-index
//	              build, warm-up
//	ops_per_s     completed ops per second; an op is a statement
//	              (oltp-point), a transaction (oltp-write), a query
//	              (tpch-ap)
//	p50_ms        op latency, exact nearest-rank order statistics of the
//	p99_ms        window's ops; a window with fewer than 10 samples
//	              beyond p99 fails the run
//	ok_ratio      completed / attempted ops (1 - error ratio, which may
//	              read 0, and a metric here never does)
//	heap_mb       live heap after a forced GC at the end of the window.
//	              The read path retains memory per statement (see
//	              runtime.retained_bytes_per_op), so heap_mb grows, and
//	              ops_per_s falls, with the ops a window runs: compare
//	              runs of the same --seconds only
//	q_geomean_ms  geometric mean over op classes of each class's median
//	              latency: the 22 queries on tpch-ap; the single class,
//	              so p50, on the OLTP workloads
//
// # Per-layer metrics (--trace 1)
//
// A --trace 1 run measures the workload on one cluster untraced, then
// on a fresh cluster with Config.Tracing and Config.Metrics on, each
// for a quarter of --seconds like one end-to-end window. The benchmark
// wraps every call it makes into core.Session in its own span and folds
// the span tree the program recorded for that call beneath it, by path
// of span names with " dn=…" stripped. A span's self time is its
// duration minus its children's. Times are µs of self time per op.
// Which end-to-end metric each should move, and on which workload:
//
//	core.self_us                   statement root span self time      p50_ms, ops_per_s, q_geomean_ms   oltp-point, tpch-ap
//	sql.parse_us                   sql.Parse timed on each sent text  p50_ms                            oltp-point
//	optimizer.plan_us              "plan" span self time              p50_ms, q_geomean_ms              oltp-point, tpch-ap
//	optimizer.plancache_hit_ratio  CN.PlanCacheStats deltas           p50_ms                            oltp-point, tpch-ap
//	txn.read_rpc_us                rpc get/multiget/scan spans        p50_ms, q_geomean_ms              oltp-point, tpch-ap
//	txn.write_rpc_us               rpc insert/update/delete/multiwrite p50_ms                           oltp-write
//	txn.prepare_us                 2PC "prepare" spans                p50_ms, ops_per_s                 oltp-write
//	txn.commit_point_us            2PC "commit-point" spans           p50_ms, ops_per_s                 oltp-write
//	txn.commit_us                  "commit" and "commit-1pc" spans    p50_ms, ops_per_s                 oltp-write
//	txn.rpcs_per_op                branch RPC and 2PC spans per op    p50_ms                            oltp-point, oltp-write
//	txn.abort_ratio                txn.abort / (txn.commit+txn.abort) ok_ratio                          oltp-write
//	simnet.msgs_per_op             Σ Network.MessageCount / ops       p50_ms                            oltp-point, oltp-write
//	dn.rpcs_per_op                 Σ leader Instance.RPCStats / ops   ops_per_s                         oltp-point
//	paxos.quorum_wait_us           paxos.quorum_wait Sum/Count        p50_ms                            oltp-write
//	paxos.mtrs_per_flush           Node.MetricsSnapshot deltas        ops_per_s                         oltp-write
//	paxos.flushes_per_commit       leader flushes / txn.commit        ops_per_s                         oltp-write
//	ro.catchup_ms                  load end to WaitROConvergence      setup_s                           tpch-ap
//	ro.max_lag_bytes               sampled DLSN - RO.AppliedLSN       setup_s, ok_ratio                 tpch-ap
//	ro.evicted                     Σ Instance.EvictedROs              ok_ratio                          tpch-ap
//	htap.ap_rounds_per_query       AP + Slow pool Rounds / ops        q_geomean_ms                      tpch-ap
//	htap.demotions                 Σ pool Demotions over the window   q_geomean_ms                      tpch-ap
//	colindex.scan_mb_per_query     colindex.scan_bytes / ops          q_geomean_ms                      tpch-ap
//	colindex.footprint_mb          Σ Index.FootprintBytes             heap_mb                           tpch-ap
//	runtime.allocs_per_op          untraced MemStats.Mallocs / ops    ops_per_s, p99_ms                 oltp-point
//	runtime.bytes_per_op           untraced MemStats.TotalAlloc / ops ops_per_s, p99_ms                 oltp-point
//	runtime.gc_per_kop             untraced GCs per 1000 ops          ops_per_s, p99_ms                 oltp-point
//	runtime.retained_bytes_per_op  untraced post-GC heap growth / ops heap_mb                           oltp-point
//	tracing.overhead_ratio         untraced / traced ops_per_s        none; reported only               all
//
// A metric that a workload does not exercise reads 0 there. The
// tracing overhead includes the benchmark's own probe: folding each
// span tree and the extra sql.Parse per SQL text.
//
// Not measured on purpose: the wire server (its loopback TCP measures
// the host kernel), admission control, the autopilot, PolarFS and the
// TSO, each off by default or off the statement path, and RO apply
// under sustained writes.
package main
