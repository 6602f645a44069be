package dn

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/colindex"
	"repro/internal/hlc"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/vector"
	"repro/internal/wal"
)

// RO is a read-only replica attached to a DN instance (§II-C). It applies
// the instance's redo stream into its own engine and serves snapshot
// reads; session consistency is enforced by waiting until the applied
// LSN covers the client's last write.
type RO struct {
	name string
	dc   simnet.DC
	net  *simnet.Network
	eng  *storage.Engine
	ap   *storage.Applier

	// applyDelay simulates a busy/slow replica (CPU or network
	// congestion per §II-C); the instance evicts replicas whose lag
	// exceeds the limit.
	applyDelay atomic.Int64 // nanoseconds per batch

	// applyMu serializes ingest end to end: the position check, decode,
	// apply and the advance of applied. simnet delivers every shipped
	// batch on its own goroutine, so without it two batches could apply
	// concurrently and out of order, and applied could move backwards.
	applyMu sync.Mutex
	// decodeErrs counts shipped batches that failed to decode; nothing
	// from them was applied (reported in ROStatus).
	decodeErrs atomic.Uint64

	mu sync.Mutex
	// applied is the replica's redo position: everything below it is
	// applied, and the next shipped batch must start exactly here. It is
	// monotone (purge bounds and session-consistent reads trust it).
	applied wal.LSN
	waiters []roWaiter
	stopped bool
	// evicted: the instance cut this replica off the redo stream, so it
	// can never catch up and refuses reads.
	evicted bool
	ingests uint64

	// colBuilder, when non-nil, maintains in-memory column indexes fed
	// from the applied redo stream (§VI-E).
	colBuilder atomic.Pointer[colindex.Builder]
	// svc is this replica's own service-capacity model.
	svc *svcModel
	// compressOff propagates the instance's CompressionOff setting to
	// column indexes enabled on this replica; metrics receives their
	// encoded-scan counters.
	compressOff bool
	metrics     *obs.Registry
}

// ErrROEvicted is returned by reads on a replica the instance evicted
// (lagging beyond its limit, or its redo position purged).
var ErrROEvicted = errors.New("dn: read-only replica evicted")

type roWaiter struct {
	lsn wal.LSN
	ch  chan struct{}
}

// roAppendMsg ships raw redo [Start, Start+len(Bytes)) to an RO.
type roAppendMsg struct {
	Start wal.LSN
	Bytes []byte
}

// roAck reports the RO's applied offset back to the instance.
type roAck struct {
	From    string
	Applied wal.LSN
}

// AddRO attaches a new read-only replica to the instance. Because the
// replica shares PolarFS with the RW node, creation copies no data: the
// replica starts consuming redo from the instance's current base and
// serves reads once caught up. (This is what makes adding an RO take
// seconds, not hours — the §II/§VII-C scalable-reads claim.)
func (i *Instance) AddRO(name string) (*RO, error) {
	ro := &RO{
		name:        name,
		dc:          i.cfg.DC,
		net:         i.cfg.Net,
		eng:         storage.NewEngine(),
		compressOff: i.cfg.CompressionOff,
		metrics:     i.cfg.Metrics,
	}
	ro.svc = newSvcModel(i.cfg.ServiceRate, 0)
	ro.ap = storage.NewApplier(ro.eng)
	// Clone current schemas so the replica can apply row redo. (The real
	// system reads the shared data dictionary from PolarFS.)
	for _, t := range i.eng.Tables() {
		if _, err := ro.eng.CreateTable(t.ID, t.Tenant, t.Schema); err != nil {
			return nil, err
		}
	}
	i.cfg.Net.Register(name, i.cfg.DC, ro.handle)

	i.mu.Lock()
	defer i.mu.Unlock()
	if i.stopped {
		i.cfg.Net.Unregister(name)
		return nil, ErrStopped
	}
	i.ros = append(i.ros, ro)
	base := i.node.Log().BaseLSN()
	i.roCur[name] = base
	i.roAck[name] = base
	ro.mu.Lock()
	ro.applied = base
	ro.mu.Unlock()
	return ro, nil
}

// ROs lists the instance's replicas.
func (i *Instance) ROs() []*RO {
	i.mu.Lock()
	defer i.mu.Unlock()
	return append([]*RO(nil), i.ros...)
}

// EvictedROs lists replicas kicked out for lagging.
func (i *Instance) EvictedROs() []string {
	i.mu.Lock()
	defer i.mu.Unlock()
	var out []string
	for name, ev := range i.evicted {
		if ev {
			out = append(out, name)
		}
	}
	return out
}

// roShipperLoop streams new redo to each RO replica, mirroring §II-C
// steps 4-7: broadcast the update, replicas apply and piggyback their
// consumed offset, and replicas lagging beyond the limit are kicked out
// of the cluster so they stop holding back log purge.
func (i *Instance) roShipperLoop() {
	defer i.wg.Done()
	ticker := time.NewTicker(time.Millisecond)
	defer ticker.Stop()
	for {
		wait := i.node.Log().WaitForAppend()
		select {
		case <-i.done:
			return
		case <-wait:
		case <-ticker.C:
		}
		i.shipToROs()
	}
}

func (i *Instance) shipToROs() {
	log := i.node.Log()
	// Only redo below DLSN is safe to expose to readers: beyond it the
	// records could be truncated after a leader change (§III).
	limit := i.node.DLSN()
	i.mu.Lock()
	type job struct {
		name string
		from wal.LSN
	}
	var jobs []job
	for _, ro := range i.ros {
		name := ro.name
		if i.evicted[name] {
			continue
		}
		cur := i.roCur[name]
		if cur >= limit {
			continue
		}
		// Eviction check: lag beyond the limit gets the replica kicked.
		if limit-i.roAck[name] > i.cfg.ROLagLimit {
			i.evictLocked(name)
			continue
		}
		jobs = append(jobs, job{name: name, from: cur})
		i.roCur[name] = limit
	}
	i.mu.Unlock()

	for _, j := range jobs {
		raw, err := log.ReadBytes(j.from, limit)
		if err != nil {
			i.shipFailed(j.name, j.from, err)
			continue
		}
		i.cfg.Net.Send(i.cfg.Name, j.name, roAppendMsg{Start: j.from, Bytes: raw}, nil)
	}
}

// shipFailed handles a redo range the shipper could not read. The
// cursor goes back to the range start (or the replica's acked position,
// if that is further) so a transient failure retries next round. The
// cursor never sits below the acked position and purge never passes it,
// so a purged range means that invariant broke: the replica is evicted,
// counted, instead of wedging silently.
func (i *Instance) shipFailed(name string, from wal.LSN, err error) {
	i.mROShipErrs.Add(1)
	i.mu.Lock()
	defer i.mu.Unlock()
	if from < i.roCur[name] {
		i.roCur[name] = max(from, i.roAck[name])
	}
	if errors.Is(err, wal.ErrPurged) {
		i.evictLocked(name)
	}
}

// evictLocked kicks a replica out of the redo stream; caller holds i.mu.
func (i *Instance) evictLocked(name string) {
	if i.evicted[name] {
		return
	}
	i.evicted[name] = true
	i.mROEvicted.Add(1)
	for _, ro := range i.ros {
		if ro.name == name {
			ro.evict()
		}
	}
}

// handleROAck ingests a replica's applied offset.
func (i *Instance) handleROAck(m roAck) {
	i.mu.Lock()
	defer i.mu.Unlock()
	if m.Applied > i.roAck[m.From] {
		i.roAck[m.From] = m.Applied
	}
	// The shipping cursor never sits below the best acked position: the
	// replica is known to be there, and redo below it may already be
	// purged. An ack behind the cursor is a rewind request (gap) — acks
	// travel on goroutines of their own, so it may also just be stale —
	// and an ack ahead of it (a batch shipped before a rewind applied)
	// moves the cursor forward.
	if acked := i.roAck[m.From]; m.Applied < i.roCur[m.From] || i.roCur[m.From] < acked {
		i.roCur[m.From] = acked
	}
}

// MinROAck returns the lowest applied LSN across live replicas — the
// log-purge bound of §II-C step 8.
func (i *Instance) MinROAck() wal.LSN {
	i.mu.Lock()
	defer i.mu.Unlock()
	min := i.node.DLSN()
	for _, ro := range i.ros {
		if i.evicted[ro.name] {
			continue
		}
		if a := i.roAck[ro.name]; a < min {
			min = a
		}
	}
	return min
}

// --- RO side ---

// SetApplyDelay simulates replica slowness (per shipped batch).
func (r *RO) SetApplyDelay(d time.Duration) { r.applyDelay.Store(int64(d)) }

// Name returns the RO endpoint name.
func (r *RO) Name() string { return r.name }

// Engine exposes the replica's engine (column index builds on it).
func (r *RO) Engine() *storage.Engine { return r.eng }

// AppliedLSN returns the replica's applied redo offset.
func (r *RO) AppliedLSN() wal.LSN { return r.appliedLSN() }

func (r *RO) appliedLSN() wal.LSN {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.applied
}

// evict marks the replica cut off from the redo stream: waiting readers
// are released and every read fails with ErrROEvicted rather than
// waiting for redo that will never come.
func (r *RO) evict() {
	r.mu.Lock()
	r.evicted = true
	ws := r.waiters
	r.waiters = nil
	r.mu.Unlock()
	for _, w := range ws {
		close(w.ch)
	}
}

func (r *RO) stop() {
	r.mu.Lock()
	r.stopped = true
	ws := r.waiters
	r.waiters = nil
	r.mu.Unlock()
	for _, w := range ws {
		close(w.ch)
	}
	r.net.Unregister(r.name)
}

func (r *RO) handle(from string, msg any) (any, error) {
	switch m := msg.(type) {
	case roAppendMsg:
		r.ingest(from, m)
		return nil, nil
	case ROReadReq:
		return r.read(m)
	case ROMultiGetReq:
		return r.multiGet(m)
	case ROScanReq:
		return r.scan(m)
	case StatusReq:
		return StatusResp{Name: r.name, TailLSN: r.appliedLSN()}, nil
	default:
		return nil, fmt.Errorf("dn: ro %s: unexpected message %T", r.name, msg)
	}
}

// ingest applies a shipped redo batch and acks the applied offset.
func (r *RO) ingest(from string, m roAppendMsg) {
	if d := r.applyDelay.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	r.applyMu.Lock()
	defer r.applyMu.Unlock()
	applied := r.appliedLSN()
	if m.Start != applied {
		// Out-of-order batch (a rewind already served it, or a gap):
		// re-ack our position so the shipper realigns.
		r.net.Send(r.name, from, roAck{From: r.name, Applied: applied}, nil)
		return
	}
	recs, err := wal.DecodeAll(m.Bytes)
	if err != nil {
		// Apply nothing and stay put. The re-ack rewinds the shipper to
		// this position; a range that never decodes leaves the replica
		// lagging until the instance evicts it.
		r.decodeErrs.Add(1)
		r.net.Send(r.name, from, roAck{From: r.name, Applied: applied}, nil)
		return
	}
	r.applyRecords(recs)
	end := m.Start + wal.LSN(len(m.Bytes))
	r.mu.Lock()
	if end < r.applied {
		r.mu.Unlock()
		panic(fmt.Sprintf("dn: ro %s: applied LSN moved backwards: %d -> %d", r.name, r.applied, end))
	}
	r.applied = end
	r.ingests++
	vacuumDue := r.ingests%256 == 0
	var ready []roWaiter
	remaining := r.waiters[:0]
	for _, w := range r.waiters {
		if w.lsn <= r.applied {
			ready = append(ready, w)
		} else {
			remaining = append(remaining, w)
		}
	}
	r.waiters = remaining
	r.mu.Unlock()
	for _, w := range ready {
		close(w.ch)
	}
	if vacuumDue {
		// Replica-side MVCC GC. RO snapshots are not registered with the
		// engine, so vacuum keeps a generous safety window: only history
		// superseded more than vacuumWindow ago is reclaimed.
		horizon := hlc.New(hlc.WallClock()-vacuumWindowMs, 0)
		r.eng.Vacuum(horizon)
	}
	r.net.Send(r.name, from, roAck{From: r.name, Applied: end}, nil)
}

// vacuumWindowMs bounds how far behind "now" an RO snapshot may lag and
// still read consistent history (5s; session-consistent reads are
// milliseconds behind in practice, §II-C).
const vacuumWindowMs = 5000

func (r *RO) applyRecords(recs []wal.Record) {
	if b := r.colBuilder.Load(); b != nil {
		_ = b.Apply(recs)
	}
	run := recs[:0:0]
	flush := func() {
		if len(run) > 0 {
			_ = r.ap.Apply(run)
			run = run[:0]
		}
	}
	for _, rec := range recs {
		if rec.Type == wal.RecDDL {
			flush()
			if schema, err := DecodeSchema(rec.Payload); err == nil {
				_, _ = r.eng.CreateTable(rec.TableID, rec.TenantID, schema)
			}
			continue
		}
		run = append(run, rec)
	}
	flush()
}

// waitApplied blocks until the applied LSN reaches lsn (session
// consistency: §II-C "The RO will wait until its snapshot version number
// is no less than LSN_RW before processing the query"). An evicted
// replica fails with ErrROEvicted.
func (r *RO) waitApplied(lsn wal.LSN) error {
	r.mu.Lock()
	if r.evicted {
		r.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrROEvicted, r.name)
	}
	if r.applied >= lsn || r.stopped {
		r.mu.Unlock()
		return nil
	}
	ch := make(chan struct{})
	r.waiters = append(r.waiters, roWaiter{lsn: lsn, ch: ch})
	r.mu.Unlock()
	<-ch
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.evicted {
		return fmt.Errorf("%w: %s", ErrROEvicted, r.name)
	}
	return nil
}

func (r *RO) read(m ROReadReq) (ReadResp, error) {
	if err := r.waitApplied(m.MinLSN); err != nil {
		return ReadResp{}, err
	}
	r.svc.serve(pointCost)
	row, ok, err := r.eng.GetAt(m.Table, m.PK, m.SnapshotTS)
	return ReadResp{Row: row, OK: ok}, err
}

// multiGet serves a batch of session-consistent point reads in one
// round trip: wait for the watermark once, then answer every key.
func (r *RO) multiGet(m ROMultiGetReq) (MultiGetResp, error) {
	if err := r.waitApplied(m.MinLSN); err != nil {
		return MultiGetResp{}, err
	}
	r.svc.serve(pointCost * float64(len(m.Gets)))
	out := make([]ReadResp, len(m.Gets))
	for k, g := range m.Gets {
		row, ok, err := r.eng.GetAt(g.Table, g.PK, m.SnapshotTS)
		if err != nil {
			return MultiGetResp{}, err
		}
		out[k] = ReadResp{Row: row, OK: ok}
	}
	return MultiGetResp{Results: out}, nil
}

// EnableColumnIndex builds in-memory column indexes for the given
// tables on this replica, backfilling from the replica's current state
// and then maintaining them from the redo stream. Only AP-serving RO
// nodes pay this memory cost; the RW node never materializes the index
// (§VI-E). batch > 1 delays maintenance (batched updates), trading
// freshness for overhead.
func (r *RO) EnableColumnIndex(tableIDs []uint32, batch int) error {
	if batch < 1 {
		batch = 1
	}
	var indexes []*colindex.Index
	backfillTS := hlc.New(0, 0)
	for _, id := range tableIDs {
		t, err := r.eng.Table(id)
		if err != nil {
			return err
		}
		ix := colindex.New(id, t.Schema)
		ix.BatchSize = batch
		ix.SetCompression(!r.compressOff)
		ix.SetMetrics(r.metrics)
		indexes = append(indexes, ix)
	}
	// Merge into an existing builder so tables enabled earlier keep
	// their indexes; otherwise start fresh.
	builder := r.colBuilder.Load()
	if builder == nil {
		builder = colindex.NewBuilder()
	}
	for _, ix := range indexes {
		builder.Add(ix)
	}
	// Backfill: snapshot the replica's current contents. New redo keeps
	// flowing through applyRecords after the pointer is published; rows
	// committed between the snapshot and publication are replayed onto
	// the index (same-PK replays supersede the backfilled version).
	snapshot := hlc.Timestamp(^uint64(0) >> 1)
	for i, id := range tableIDs {
		ix := indexes[i]
		var recs []wal.Record
		err := r.eng.ScanRangeAt(id, nil, nil, snapshot, func(pk []byte, row types.Row) bool {
			recs = append(recs, wal.Record{Type: wal.RecInsert, TableID: id,
				TxnID: ^uint64(0), Key: append([]byte(nil), pk...),
				Payload: types.EncodeRow(nil, row)})
			return true
		})
		if err != nil {
			return err
		}
		if len(recs) > 0 {
			recs = append(recs, wal.Record{Type: wal.RecCommit, TxnID: ^uint64(0),
				Payload: encodeBackfillTS(backfillTS)})
			if err := builder.Apply(recs); err != nil {
				return err
			}
			if err := ix.Flush(); err != nil {
				return err
			}
		}
	}
	r.colBuilder.Store(builder)
	return nil
}

func encodeBackfillTS(ts hlc.Timestamp) []byte {
	return []byte{byte(ts >> 56), byte(ts >> 48), byte(ts >> 40), byte(ts >> 32),
		byte(ts >> 24), byte(ts >> 16), byte(ts >> 8), byte(ts)}
}

// ColumnIndex exposes a maintained index (benchmarks, diagnostics).
func (r *RO) ColumnIndex(tableID uint32) (*colindex.Index, bool) {
	b := r.colBuilder.Load()
	if b == nil {
		return nil, false
	}
	return b.Index(tableID)
}

func (r *RO) scan(m ROScanReq) (ScanResp, error) {
	if err := r.waitApplied(m.MinLSN); err != nil {
		return ScanResp{}, err
	}
	if m.UseColumnIndex {
		if b := r.colBuilder.Load(); b != nil {
			if ix, ok := b.Index(m.Table); ok {
				return r.scanColumnIndex(ix, m)
			}
		}
		// Fall through to the row store when no index is maintained.
	}
	var rows []types.Row
	var evalErr error
	examined := 0
	collect := func(_ []byte, row types.Row) bool {
		examined++
		if m.Filter != nil {
			v, err := sql.Eval(m.Filter, row)
			if err != nil {
				evalErr = err
				return false
			}
			if !v.IsTruthy() {
				return true
			}
		}
		rows = append(rows, projectRow(row, m.Projection))
		return m.Limit <= 0 || len(rows) < m.Limit
	}
	var err error
	if m.Index != "" {
		txn := r.eng.Begin(m.SnapshotTS)
		err = r.eng.IndexScan(txn, m.Table, m.Index, m.Start, m.End, collect)
		_ = r.eng.Abort(txn) // read-only snapshot txn: release tracking
	} else {
		err = r.eng.ScanRangeAt(m.Table, m.Start, m.End, m.SnapshotTS, collect)
	}
	if err == nil {
		err = evalErr
	}
	r.svc.serve(float64(examined))
	if m.WantBatch && err == nil {
		// Columnarize once at the source: the CN's batch executor consumes
		// the vectors directly instead of re-pivoting rows per operator.
		if len(rows) == 0 {
			return ScanResp{}, nil
		}
		return ScanResp{Batch: vector.FromRows(rows, len(rows[0]))}, nil
	}
	return ScanResp{Rows: rows}, err
}

// scanColumnIndex serves an ROScanReq from the in-memory column index,
// including pushed-down partial aggregation. Columnar execution costs a
// quarter of the row store's tokens per row — the vectorized path's CPU
// advantage (§VI-E).
func (r *RO) scanColumnIndex(ix *colindex.Index, m ROScanReq) (ScanResp, error) {
	r.svc.serve(float64(ix.Rows()) * colIndexCost)
	if m.Aggregate != nil {
		specs := make([]colindex.AggSpec, len(m.Aggregate.Aggs))
		for i, a := range m.Aggregate.Aggs {
			specs[i] = colindex.AggSpec{Func: a.Func, Col: a.Col, Expr: a.Expr, Star: a.Star}
		}
		rows, err := ix.AggScan(m.SnapshotTS, m.Filter, m.Aggregate.GroupBy, specs)
		if m.WantBatch && err == nil {
			// Partial-aggregate output is small; columnarize for uniformity.
			if len(rows) == 0 {
				return ScanResp{}, nil
			}
			return ScanResp{Batch: vector.FromRows(rows, len(rows[0]))}, nil
		}
		return ScanResp{Rows: rows}, err
	}
	if m.WantBatch {
		// Zero-copy: the batch's vectors alias the index's column storage.
		b, err := ix.ScanBatch(m.SnapshotTS, m.Filter, m.Projection, m.Limit)
		if err != nil {
			return ScanResp{}, err
		}
		if b.NumRows() == 0 {
			return ScanResp{}, nil
		}
		return ScanResp{Batch: b}, nil
	}
	rows, err := ix.Scan(m.SnapshotTS, m.Filter, m.Projection, m.Limit)
	return ScanResp{Rows: rows}, err
}
