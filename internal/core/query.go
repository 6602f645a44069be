package core

import (
	"fmt"
	"time"

	"repro/internal/admission"
	"repro/internal/dn"
	"repro/internal/executor"
	"repro/internal/hlc"
	"repro/internal/htap"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/retry"
	"repro/internal/sql"
	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/vector"
	"repro/internal/wal"
)

// apMemRetry backs an AP query off briefly when its working-memory
// reservation is rejected: three quick jittered tries ride out a
// transient squeeze (TP preemption, a big AP query finishing) without
// holding the statement hostage.
var apMemRetry = retry.Policy{Attempts: 3, Base: 2 * time.Millisecond, Cap: 10 * time.Millisecond, Jitter: 0.5}

// queryCtx carries per-query execution state through operator building.
type queryCtx struct {
	s        *Session
	tx       *txn.Tx       // TP reads (branch-scoped); nil in AP mode
	snapshot hlc.Timestamp // AP snapshot
	ap       bool
	group    htap.Group // pool classification (isolation-off forces TP)
	mpp      bool
	// analyze, when non-nil, requests EXPLAIN ANALYZE instrumentation:
	// operator lowering wraps every node and records its rows-out and
	// wall time here. Populated during (single-goroutine) lowering only.
	analyze map[optimizer.Node]*obs.OpStats
}

// statsFor returns (creating on demand) the stats slot for a plan node;
// nil when the query is not being analyzed.
func (ctx *queryCtx) statsFor(n optimizer.Node) *obs.OpStats {
	if ctx.analyze == nil {
		return nil
	}
	st := ctx.analyze[n]
	if st == nil {
		st = &obs.OpStats{}
		ctx.analyze[n] = st
	}
	return st
}

// execSelect plans and runs a SELECT.
func (s *Session) execSelect(sel *sql.Select) (*Result, error) {
	var err error
	if sel.Where, err = s.rewriteSubqueries(sel.Where); err != nil {
		return nil, err
	}
	if sel.Having, err = s.rewriteSubqueries(sel.Having); err != nil {
		return nil, err
	}
	plan, err := s.cn.planFor(sel, s.trace())
	if err != nil {
		return nil, err
	}
	rows, err := s.runPlan(plan, nil)
	if err != nil {
		return nil, err
	}
	return &Result{Columns: plan.Root.Columns(), Rows: rows, Plan: plan}, nil
}

// runPlan executes a physical plan under the HTAP routing rules: TP
// plans read through transaction branches on RW leaders in the TP pool;
// AP plans read RO replicas at a snapshot in the AP pool (unless
// isolation is off, Fig. 9 config 1).
func (s *Session) runPlan(plan *optimizer.Plan, analyze map[optimizer.Node]*obs.OpStats) ([]types.Row, error) {
	// SELECTs take their admission slot here, after the optimizer has
	// classified the plan: AP plans queue (and brown out) behind TP.
	release, err := s.admit(plan.IsAP)
	if err != nil {
		return nil, err
	}
	defer release()
	ctx := &queryCtx{s: s, ap: plan.IsAP, mpp: plan.MPP, analyze: analyze}
	ctx.group = htap.GroupTP
	if plan.IsAP && !s.cn.cluster.cfg.IsolationOff {
		ctx.group = htap.GroupAP
	}
	if plan.IsAP {
		snap, err := s.cn.coord.Oracle().SnapshotTS()
		if err != nil {
			return nil, err
		}
		ctx.snapshot = snap
	} else {
		tx, done, err := s.txnFor()
		if err != nil {
			return nil, err
		}
		defer func() {
			// Read-only execution: the auto-commit path releases branches.
			_ = done(nil)
		}()
		ctx.tx = tx
	}
	// AP queries reserve working memory from the CN's AP region before
	// running; TP preemption may shrink that region (§VI-D). A rejected
	// reservation is transient overload — TP preemption shrinks the
	// region and finishing AP queries give memory back — so it backs off
	// briefly and, if still starved, sheds as a retryable ErrOverloaded
	// counted with the other admission sheds, rather than surfacing an
	// opaque fatal error.
	if plan.IsAP {
		est := int64(plan.Root.EstRows())*96 + 4096
		memErr := retry.DoUntil(obs.Wall, apMemRetry, s.deadline(),
			func(error) bool { return true },
			func() error { return s.cn.sched.Mem.Reserve(ctx.group, est) })
		if memErr != nil {
			s.cn.admMetrics.Shed.Add(1)
			return nil, fmt.Errorf("core: AP memory admission: %w: %v", admission.ErrOverloaded, memErr)
		}
		defer s.cn.sched.Mem.Release(ctx.group, est)
	}
	// Every plan runs on batch operators. Shard fetches and partial
	// aggregation run as scheduled fragment jobs in the classified pool
	// (quota-gated for AP, §VI-D); the final merge pulls from their
	// bounded exchange queues on this goroutine, so a blocked consumer can
	// never starve the workers its producers need.
	root, err := s.cn.buildBatchOperator(plan.Root, ctx)
	if err != nil {
		return nil, err
	}
	return executor.CollectBatch(root)
}

// buildBatchOperator lowers a plan node to a batch operator tree,
// wrapping each node with an instrumented shim when the query runs under
// EXPLAIN ANALYZE (ctx.analyze non-nil). Plain queries lower directly.
func (cn *CN) buildBatchOperator(node optimizer.Node, ctx *queryCtx) (executor.BatchOperator, error) {
	op, err := cn.lowerBatchOperator(node, ctx)
	if err != nil || ctx.analyze == nil {
		return op, err
	}
	return executor.InstrumentBatch(op, ctx.statsFor(node)), nil
}

// lowerBatchOperator is the uninstrumented lowering behind
// buildBatchOperator.
func (cn *CN) lowerBatchOperator(node optimizer.Node, ctx *queryCtx) (executor.BatchOperator, error) {
	switch n := node.(type) {
	case *optimizer.ScanNode:
		return cn.buildBatchScan(n, ctx)
	case *optimizer.FilterNode:
		in, err := cn.buildBatchOperator(n.Input, ctx)
		if err != nil {
			return nil, err
		}
		return &executor.BatchFilter{Input: in, Pred: n.Pred}, nil
	case *optimizer.ProjectNode:
		in, err := cn.buildBatchOperator(n.Input, ctx)
		if err != nil {
			return nil, err
		}
		return &executor.BatchProject{Input: in, Exprs: n.Exprs, Names: n.Names}, nil
	case *optimizer.SortNode:
		in, err := cn.buildBatchOperator(n.Input, ctx)
		if err != nil {
			return nil, err
		}
		op := &executor.BatchSort{Input: in}
		for _, k := range n.Keys {
			op.Keys = append(op.Keys, executor.SortKey{Expr: k.Expr, Desc: k.Desc})
		}
		return op, nil
	case *optimizer.LimitNode:
		in, err := cn.buildBatchOperator(n.Input, ctx)
		if err != nil {
			return nil, err
		}
		return &executor.BatchLimit{Input: in, N: n.N}, nil
	case *optimizer.JoinNode:
		if op, ok, err := cn.buildBatchPartitionWiseJoin(n, ctx); err != nil {
			return nil, err
		} else if ok {
			return op, nil
		}
		left, err := cn.buildBatchOperator(n.Left, ctx)
		if err != nil {
			return nil, err
		}
		right, err := cn.buildBatchOperator(n.Right, ctx)
		if err != nil {
			return nil, err
		}
		if len(n.LeftKeys) > 0 {
			return &executor.BatchHashJoin{Left: left, Right: right,
				LeftKeys: n.LeftKeys, RightKeys: n.RightKeys,
				Residual: n.On, Outer: n.Outer}, nil
		}
		return &executor.BatchNestedLoopJoin{Left: left, Right: right, On: n.On, Outer: n.Outer}, nil
	case *optimizer.AggNode:
		return cn.buildBatchAgg(n, ctx)
	default:
		return nil, fmt.Errorf("core: cannot execute plan node %T", node)
	}
}

// buildBatchAgg lowers aggregation, using the MPP two-phase split when
// the input is a scan: per-shard fragments compute partial aggregates
// near the data (or fully inside the column index), and the coordinator
// merges (§VI-C). Other inputs get a complete-mode hash aggregation.
func (cn *CN) buildBatchAgg(n *optimizer.AggNode, ctx *queryCtx) (executor.BatchOperator, error) {
	scan, scanInput := n.Input.(*optimizer.ScanNode)
	if n.TwoPhase && scanInput && len(scan.PointLookups) == 0 && scan.GSI == nil {
		return cn.buildBatchTwoPhaseAgg(n, scan, ctx)
	}
	in, err := cn.buildBatchOperator(n.Input, ctx)
	if err != nil {
		return nil, err
	}
	return &executor.BatchHashAgg{Input: in, GroupBy: n.GroupBy,
		Aggs: aggSpecs(n.Aggs), Mode: executor.AggComplete, Names: n.Names}, nil
}

// fragmentScheds lists the schedulers fragments spread over: this CN's
// alone, or every CN's under MPP (§VI-C Task Scheduler distributing
// tasks to CN nodes).
func (cn *CN) fragmentScheds(ctx *queryCtx) []*htap.Scheduler {
	if !ctx.mpp {
		return []*htap.Scheduler{cn.sched}
	}
	var scheds []*htap.Scheduler
	for _, other := range cn.cluster.CNs() {
		scheds = append(scheds, other.sched)
	}
	return scheds
}

// runFragments starts the fragments on their schedulers and gathers
// their exchange queues, armed against the statement deadline.
func runFragments(ctx *queryCtx, assignments []executor.BatchFragmentAssignment) *executor.BatchGather {
	return executor.RunBatchFragmentsUntil(ctx.group, assignments, executor.DefaultQueueHighWater, obs.Wall, ctx.s.deadline())
}

// buildBatchTwoPhaseAgg fans one partial-aggregation fragment out per
// shard; partial states flow back as batches through bounded exchange
// queues and merge in a final-mode aggregation.
func (cn *CN) buildBatchTwoPhaseAgg(n *optimizer.AggNode, scan *optimizer.ScanNode, ctx *queryCtx) (executor.BatchOperator, error) {
	pushed := cn.pushableAgg(n, scan, ctx)
	scheds := cn.fragmentScheds(ctx)
	var assignments []executor.BatchFragmentAssignment
	for i, shard := range scanShards(scan) {
		src, err := cn.batchShardSource(scan, shard, ctx, pushed)
		if err != nil {
			return nil, err
		}
		if st := ctx.statsFor(scan); st != nil {
			// The scan never passes through buildBatchOperator here
			// (fragments consume shard sources directly), so every shard
			// source shares the scan's stats slot, summing rows across
			// the fan-out.
			src = executor.InstrumentBatch(src, st)
		}
		frag := src
		if pushed == nil {
			// Partial aggregation runs in the fragment, near its shard.
			frag = &executor.BatchHashAgg{Input: src, GroupBy: n.GroupBy,
				Aggs: aggSpecs(n.Aggs), Mode: executor.AggPartial}
		}
		assignments = append(assignments, executor.BatchFragmentAssignment{
			Op: frag, Sched: scheds[i%len(scheds)],
		})
	}
	return &executor.BatchHashAgg{Input: runFragments(ctx, assignments),
		GroupBy: finalGroupRefs(len(n.GroupBy)),
		Aggs:    aggSpecs(n.Aggs), Mode: executor.AggFinal, Names: n.Names}, nil
}

// buildBatchPartitionWiseJoin executes a partition-wise join (§II-B):
// both sides share a table group and join on the partition key, so shard
// i of the left table only ever matches shard i of the right. Each
// partition group becomes one hash-join fragment running near its data —
// no redistribution, no cross-shard build table.
func (cn *CN) buildBatchPartitionWiseJoin(n *optimizer.JoinNode, ctx *queryCtx) (executor.BatchOperator, bool, error) {
	if !n.PartitionWise || len(n.LeftKeys) == 0 {
		return nil, false, nil
	}
	ls, lok := n.Left.(*optimizer.ScanNode)
	rs, rok := n.Right.(*optimizer.ScanNode)
	if !lok || !rok || len(ls.PointLookups) > 0 || len(rs.PointLookups) > 0 {
		return nil, false, nil
	}
	if ls.Table.Shards != rs.Table.Shards {
		return nil, false, nil
	}
	scheds := cn.fragmentScheds(ctx)
	var assignments []executor.BatchFragmentAssignment
	for shard := 0; shard < ls.Table.Shards; shard++ {
		leftSrc, err := cn.batchShardSource(ls, shard, ctx, nil)
		if err != nil {
			return nil, false, err
		}
		rightSrc, err := cn.batchShardSource(rs, shard, ctx, nil)
		if err != nil {
			return nil, false, err
		}
		if st := ctx.statsFor(ls); st != nil {
			leftSrc = executor.InstrumentBatch(leftSrc, st)
		}
		if st := ctx.statsFor(rs); st != nil {
			rightSrc = executor.InstrumentBatch(rightSrc, st)
		}
		frag := &executor.BatchHashJoin{Left: leftSrc, Right: rightSrc,
			LeftKeys: n.LeftKeys, RightKeys: n.RightKeys,
			Residual: n.On, Outer: n.Outer}
		assignments = append(assignments, executor.BatchFragmentAssignment{
			Op: frag, Sched: scheds[shard%len(scheds)]})
	}
	g := runFragments(ctx, assignments)
	g.Cols = n.Columns()
	return g, true, nil
}

// buildBatchScan lowers a table scan to batch sources. GSI routes and
// point lookups read their rows here and serve them as batches — a point
// lookup is a batch of one. TP scans read every shard in parallel
// through the transaction; AP scans fan out one fragment per shard so
// the CN's quota gates the heavy work.
func (cn *CN) buildBatchScan(scan *optimizer.ScanNode, ctx *queryCtx) (executor.BatchOperator, error) {
	cols := scan.Columns()
	if scan.GSI != nil || len(scan.PointLookups) > 0 {
		var rows []types.Row
		var err error
		if scan.GSI != nil {
			rows, err = cn.gsiRows(scan, ctx)
		} else {
			rows, err = cn.pointRows(scan, ctx)
		}
		if err != nil {
			return nil, err
		}
		return executor.NewBatchRowsSource(cols, rows), nil
	}
	shards := scanShards(scan)
	if ctx.tx != nil {
		return fetchOnce(cols, func() (*vector.Batch, error) {
			return rowsBatch(cn.parallelTxScan(scan, shards, ctx))
		}), nil
	}
	var assignments []executor.BatchFragmentAssignment
	for _, shard := range shards {
		src, err := cn.batchShardSource(scan, shard, ctx, nil)
		if err != nil {
			return nil, err
		}
		assignments = append(assignments, executor.BatchFragmentAssignment{Op: src, Sched: cn.sched})
	}
	g := runFragments(ctx, assignments)
	g.Cols = cols
	return g, nil
}

// scanShards lists the shards a scan reads: its pruned set, or all.
func scanShards(scan *optimizer.ScanNode) []int {
	if scan.Shards != nil {
		return scan.Shards
	}
	shards := make([]int, scan.Table.Shards)
	for i := range shards {
		shards[i] = i
	}
	return shards
}

// fetchOnce serves one deferred fetch as a source. The fetch runs on
// the first NextBatch, so a fragment job pays for it on its own
// scheduler worker.
func fetchOnce(cols []string, fetch func() (*vector.Batch, error)) executor.BatchOperator {
	fetched := false
	return &executor.BatchCallbackSource{Cols: cols, Fetch: func() (*vector.Batch, error) {
		if fetched {
			return nil, nil
		}
		fetched = true
		return fetch()
	}}
}

// rowsBatch columnarizes a fetched row set into one batch (nil when
// there are no rows).
func rowsBatch(rows []types.Row, err error) (*vector.Batch, error) {
	if err != nil || len(rows) == 0 {
		return nil, err
	}
	return vector.FromRows(rows, len(rows[0])), nil
}

// batchShardSource builds the source for one shard of a scan, with
// filter/projection pushdown. TP reads scan through the transaction's
// branch on the RW leader. AP reads go to the AP target: an RO
// columnarizes once at the source (WantBatch) — or answers zero-copy, or
// with pushed partial aggregation, from its column index — and the batch
// crosses simnet without a pivot back to rows; with no RO the leader
// serves through an ephemeral branch.
func (cn *CN) batchShardSource(scan *optimizer.ScanNode, shard int, ctx *queryCtx, pushed *dn.PushAgg) (executor.BatchOperator, error) {
	dnName, err := cn.cluster.GMS.DNForShard(scan.Table.Name, shard)
	if err != nil {
		return nil, err
	}
	cn.cluster.GMS.RecordLoad(scan.Table.Name, shard, 1)
	physTable := scan.Table.PhysicalTableID(shard)
	cols := scan.Columns()
	req := dn.ScanReq{Table: physTable, Filter: scan.Filter, Projection: scan.Projection}
	if ctx.tx != nil {
		return fetchOnce(cols, func() (*vector.Batch, error) {
			return rowsBatch(ctx.tx.ScanReq(dnName, req))
		}), nil
	}
	target, minLSN := cn.apTarget(ctx, dnName)
	if target == dnName {
		return fetchOnce(cols, func() (*vector.Batch, error) {
			tmp, err := cn.coord.Begin()
			if err != nil {
				return nil, err
			}
			defer tmp.Abort()
			return rowsBatch(tmp.ScanReq(dnName, req))
		}), nil
	}
	roReq := dn.ROScanReq{
		Table: physTable, SnapshotTS: ctx.snapshot, MinLSN: minLSN,
		Filter: scan.Filter, Projection: scan.Projection,
		UseColumnIndex: scan.UseColumnIndex, Aggregate: pushed,
		WantBatch: true,
	}
	return fetchOnce(cols, func() (*vector.Batch, error) {
		resp, err := cn.coord.ScanROBatch(target, roReq)
		if err != nil || resp.Batch != nil {
			return resp.Batch, err
		}
		return rowsBatch(resp.Rows, nil)
	}), nil
}

// aggSpecs converts optimizer aggregates to executor specs.
func aggSpecs(items []optimizer.AggItem) []executor.AggSpec {
	out := make([]executor.AggSpec, len(items))
	for i, a := range items {
		out[i] = executor.AggSpec{Func: a.Func, Arg: a.Arg, Star: a.Star, Distinct: a.Distinct}
	}
	return out
}

// finalGroupRefs builds the final-merge group keys: after the partial
// phase, group columns land at positions 0..k-1.
func finalGroupRefs(k int) []sql.Expr {
	out := make([]sql.Expr, k)
	for i := range out {
		out[i] = &sql.ColumnRef{Column: fmt.Sprintf("g%d", i), Index: i}
	}
	return out
}

// pushableAgg decides whether the whole partial aggregation can be
// pushed into the column index (§VI-E): AP column-index scan, group-by
// and aggregate arguments all plain schema columns, no DISTINCT.
func (cn *CN) pushableAgg(n *optimizer.AggNode, scan *optimizer.ScanNode, ctx *queryCtx) *dn.PushAgg {
	if !ctx.ap || !scan.UseColumnIndex {
		return nil
	}
	pa := &dn.PushAgg{}
	for _, g := range n.GroupBy {
		c, ok := g.(*sql.ColumnRef)
		if !ok || c.Index < 0 {
			return nil
		}
		pa.GroupBy = append(pa.GroupBy, c.Index)
	}
	for _, a := range n.Aggs {
		if a.Distinct {
			return nil
		}
		spec := dn.PushAggSpec{Func: a.Func, Star: a.Star}
		if !a.Star {
			if c, ok := a.Arg.(*sql.ColumnRef); ok && c.Index >= 0 {
				spec.Col = c.Index
			} else if boundExpr(a.Arg) {
				// Scalar expressions over schema columns push down too
				// (§VI-E offloads e.g. SUM(l_extendedprice*(1-l_discount))).
				spec.Expr = a.Arg
			} else {
				return nil
			}
		}
		pa.Aggs = append(pa.Aggs, spec)
	}
	return pa
}

// boundExpr reports whether every column reference in e is bound.
func boundExpr(e sql.Expr) bool {
	ok := true
	sql.Walk(e, func(n sql.Expr) bool {
		if c, isRef := n.(*sql.ColumnRef); isRef && c.Index < 0 {
			ok = false
			return false
		}
		if f, isF := n.(*sql.FuncCall); isF && f.IsAggregate() {
			ok = false
			return false
		}
		return true
	})
	return ok
}

// parallelTxScan runs one branch-scoped ScanReq per shard, concurrently
// (one branch RPC per shard — the same shape as the 2PC prepare
// fan-out), so a multi-shard TP statement pays one round trip, not one
// per shard. Results concatenate in shard order (deterministic output).
func (cn *CN) parallelTxScan(scan *optimizer.ScanNode, shards []int, ctx *queryCtx) ([]types.Row, error) {
	dns := make([]string, len(shards))
	reqs := make([]dn.ScanReq, len(shards))
	for i, shard := range shards {
		dnName, err := cn.cluster.GMS.DNForShard(scan.Table.Name, shard)
		if err != nil {
			return nil, err
		}
		cn.cluster.GMS.RecordLoad(scan.Table.Name, shard, 1)
		dns[i] = dnName
		reqs[i] = dn.ScanReq{Table: scan.Table.PhysicalTableID(shard), Filter: scan.Filter, Projection: scan.Projection}
	}
	if len(shards) == 1 {
		return ctx.tx.ScanReq(dns[0], reqs[0])
	}
	rows := make([][]types.Row, len(shards))
	errs := make(chan error, len(shards))
	for i := range shards {
		go func(i int) {
			var err error
			rows[i], err = ctx.tx.ScanReq(dns[i], reqs[i])
			errs <- err
		}(i)
	}
	var firstErr error
	for range shards {
		if err := <-errs; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	var out []types.Row
	for _, rs := range rows {
		out = append(out, rs...)
	}
	return out, nil
}

// pointGroup collects one DN's share of a multi-point statement,
// remembering each key's position in statement order.
type pointGroup struct {
	dn   string
	gets []dn.PointGet
	pos  []int
}

// pointRows fetches the scan's pinned primary keys. Fast path: keys are
// grouped by owning DN and each group goes out as ONE MultiGet RPC, all
// DNs in parallel — a statement touching K keys on N DNs pays N round
// trips instead of K (the Fig. 7 point-read path). Results are
// reassembled in statement key order.
func (cn *CN) pointRows(scan *optimizer.ScanNode, ctx *queryCtx) ([]types.Row, error) {
	groups := make(map[string]*pointGroup)
	var order []*pointGroup // deterministic first-seen fan-out order
	for k, pk := range scan.PointLookups {
		shard := scan.Table.ShardOfPK(pk)
		dnName, err := cn.cluster.GMS.DNForShard(scan.Table.Name, shard)
		if err != nil {
			return nil, err
		}
		cn.cluster.GMS.RecordLoad(scan.Table.Name, shard, 1)
		g := groups[dnName]
		if g == nil {
			g = &pointGroup{dn: dnName}
			groups[dnName] = g
			order = append(order, g)
		}
		g.gets = append(g.gets, dn.PointGet{Table: scan.Table.PhysicalTableID(shard), PK: pk})
		g.pos = append(g.pos, k)
	}
	// results is indexed by statement key position; concurrent fetches
	// write disjoint entries.
	results := make([]dn.ReadResp, len(scan.PointLookups))
	fetch := func(g *pointGroup) error {
		var rs []dn.ReadResp
		var err error
		if ctx.tx != nil {
			rs, err = ctx.tx.MultiGet(g.dn, g.gets)
		} else {
			target, minLSN := cn.apTarget(ctx, g.dn)
			if target == g.dn {
				// No RO: read through an ephemeral branch on the leader.
				tmp, terr := cn.coord.Begin()
				if terr != nil {
					return terr
				}
				rs, err = tmp.MultiGet(g.dn, g.gets)
				_ = tmp.Abort()
			} else {
				rs, err = cn.coord.MultiGetRO(target, g.gets, ctx.snapshot, minLSN)
			}
		}
		if err != nil {
			return err
		}
		for i, r := range rs {
			results[g.pos[i]] = r
		}
		return nil
	}
	if len(order) == 1 {
		if err := fetch(order[0]); err != nil {
			return nil, err
		}
	} else {
		errs := make(chan error, len(order))
		for _, g := range order {
			go func(g *pointGroup) { errs <- fetch(g) }(g)
		}
		var firstErr error
		for range order {
			if err := <-errs; err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if firstErr != nil {
			return nil, firstErr
		}
	}
	var out []types.Row
	for _, r := range results {
		if !r.OK {
			continue
		}
		// The pushed filter may carry residual conditions beyond the PK.
		if scan.Filter != nil {
			v, err := sql.Eval(scan.Filter, r.Row)
			if err != nil {
				return nil, err
			}
			if !v.IsTruthy() {
				continue
			}
		}
		out = append(out, r.Row)
	}
	return out, nil
}

// gsiRows executes a scan routed through a global secondary index
// (§II-B): read the pinned hidden-table shard by prefix range, then
// either remap clustered index rows straight into base layout or fetch
// base rows by primary key (scattered reads). The original filter runs
// against the reconstructed base rows (the GSI equality prefix is
// implied by the lookup; residual conditions still apply).
func (cn *CN) gsiRows(scan *optimizer.ScanNode, ctx *queryCtx) ([]types.Row, error) {
	gi := scan.GSI
	shard := gi.ShardOfIndexedValues(scan.GSIVals...)
	dnName, err := cn.cluster.GMS.DNForShard(scan.Table.Name, shard)
	if err != nil {
		return nil, err
	}
	cn.cluster.GMS.RecordLoad(scan.Table.Name, shard, 1)
	start := types.EncodeKey(nil, scan.GSIVals...)
	end := types.PrefixSuccessor(start)

	fetch := func(table uint32, target string, req dn.ScanReq) ([]types.Row, error) {
		if ctx.tx != nil {
			req.Table = table
			return ctx.tx.ScanReq(dnName, req)
		}
		if target == dnName {
			tmp, err := cn.coord.Begin()
			if err != nil {
				return nil, err
			}
			defer tmp.Abort()
			req.Table = table
			return tmp.ScanReq(dnName, req)
		}
		return cn.coord.ScanROReq(target, dn.ROScanReq{
			Table: table, Start: req.Start, End: req.End,
			SnapshotTS: ctx.snapshot, MinLSN: ctx.s.minLSNFor(dnName),
		})
	}
	target := dnName
	if ctx.tx == nil {
		target, _ = cn.apTarget(ctx, dnName)
	}
	irows, err := fetch(gi.PhysicalTableID(shard), target, dn.ScanReq{Start: start, End: end})
	if err != nil {
		return nil, err
	}

	var out []types.Row
	keep := func(row types.Row) (bool, error) {
		if scan.Filter == nil {
			return true, nil
		}
		v, err := sql.Eval(scan.Filter, row)
		if err != nil {
			return false, err
		}
		return v.IsTruthy(), nil
	}
	for _, irow := range irows {
		if base, ok := gi.BaseRowFromIndexRow(scan.Table, irow); ok {
			// Clustered: every column is in the index row.
			if ok2, err := keep(base); err != nil {
				return nil, err
			} else if ok2 {
				out = append(out, base)
			}
			continue
		}
		// Non-clustered: scattered read of the base row by primary key.
		pkVals := gi.BasePKFromIndexRow(scan.Table, irow)
		pk := types.EncodeKey(nil, pkVals...)
		bshard := scan.Table.ShardOfPK(pk)
		bdn, err := cn.cluster.GMS.DNForShard(scan.Table.Name, bshard)
		if err != nil {
			return nil, err
		}
		var row types.Row
		var found bool
		if ctx.tx != nil {
			row, found, err = ctx.tx.Get(bdn, scan.Table.PhysicalTableID(bshard), pk)
		} else {
			btarget, minLSN := cn.apTarget(ctx, bdn)
			if btarget == bdn {
				tmp, terr := cn.coord.Begin()
				if terr != nil {
					return nil, terr
				}
				row, found, err = tmp.Get(bdn, scan.Table.PhysicalTableID(bshard), pk)
				_ = tmp.Abort()
			} else {
				row, found, err = cn.coord.ReadRO(btarget, scan.Table.PhysicalTableID(bshard), pk, ctx.snapshot, minLSN)
			}
		}
		if err != nil {
			return nil, err
		}
		if !found {
			continue // index entry for a row deleted since (verified out)
		}
		if ok2, err := keep(row); err != nil {
			return nil, err
		} else if ok2 {
			out = append(out, row)
		}
	}
	return out, nil
}

// apTarget picks the replica serving AP reads for a DN group: a
// dedicated RO (round-robin) if configured, else the leader itself
// (Fig. 9 configs 1-2).
func (cn *CN) apTarget(ctx *queryCtx, dnName string) (string, wal.LSN) {
	c := cn.cluster
	c.mu.Lock()
	targets := c.apTargets[dnName]
	var target string
	if len(targets) > 0 {
		target = targets[int(cn.roCounter.Add(1))%len(targets)]
	}
	c.mu.Unlock()
	if target == "" {
		return dnName, 0
	}
	return target, ctx.s.minLSNFor(dnName)
}
