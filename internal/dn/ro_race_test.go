package dn

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/hlc"
	"repro/internal/paxos"
	"repro/internal/simnet"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/wal"
)

// TestROIngestConcurrentOutOfOrder delivers redo batches to a replica
// the way the fabric does: every batch on its own goroutine, in shuffled
// order, each retried until the replica's applied LSN covers it. The
// applied LSN must never move backwards, must end at the stream tail,
// and the replica must hold exactly the rows the stream writes — every
// batch rewrites a row of the previous one, so an out-of-order apply
// leaves a stale value behind. Run under -race via `make test-race`.
func TestROIngestConcurrentOutOfOrder(t *testing.T) {
	const batches, rowsPerBatch = 48, 24
	net := simnet.New(simnet.ZeroTopology())
	net.Register("rw", simnet.DC1, func(string, any) (any, error) { return nil, nil })
	ro := &RO{name: "ro1", dc: simnet.DC1, net: net, eng: storage.NewEngine(), svc: newSvcModel(0, 0)}
	ro.ap = storage.NewApplier(ro.eng)
	if _, err := ro.eng.CreateTable(1, 0, usersSchema()); err != nil {
		t.Fatal(err)
	}
	net.Register(ro.name, simnet.DC1, ro.handle)
	defer net.Unregister(ro.name)

	log := wal.NewLog()
	msgs := make([]roAppendMsg, batches)
	for b := 0; b < batches; b++ {
		txnID := uint64(b + 1)
		var recs []wal.Record
		for k := 0; k < rowsPerBatch; k++ {
			id := int64(b*rowsPerBatch + k)
			recs = append(recs, wal.Record{Type: wal.RecInsert, TableID: 1, TxnID: txnID,
				Key: pkOf(id), Payload: types.EncodeRow(nil, userRow(id, "u", int64(b)))})
		}
		if b > 0 {
			prev := int64((b - 1) * rowsPerBatch)
			recs = append(recs, wal.Record{Type: wal.RecUpdate, TableID: 1, TxnID: txnID,
				Key: pkOf(prev), Payload: types.EncodeRow(nil, userRow(prev, "u", int64(b)))})
		}
		recs = append(recs, wal.Record{Type: wal.RecCommit, TxnID: txnID,
			Payload: storage.EncodeTS(hlc.New(int64(1000+b), 0))})
		start, end := log.AppendMTR(recs...)
		log.SetFlushed(end)
		raw, err := log.ReadBytes(start, end)
		if err != nil {
			t.Fatal(err)
		}
		msgs[b] = roAppendMsg{Start: start, Bytes: raw}
	}
	tail := log.TailLSN()

	// A watcher samples the applied LSN; any step back is the bug.
	var backwards atomic.Bool
	stopWatch := make(chan struct{})
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		var last wal.LSN
		for {
			select {
			case <-stopWatch:
				return
			default:
			}
			if cur := ro.AppliedLSN(); cur < last {
				backwards.Store(true)
			} else {
				last = cur
			}
			runtime.Gosched()
		}
	}()

	deadline := time.Now().Add(10 * time.Second)
	var stalled atomic.Bool
	var wg sync.WaitGroup
	for _, b := range rand.New(rand.NewSource(7)).Perm(batches) {
		m := msgs[b]
		end := m.Start + wal.LSN(len(m.Bytes))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ro.AppliedLSN() < end {
				if time.Now().After(deadline) {
					stalled.Store(true)
					return
				}
				ro.handle("rw", m)
				runtime.Gosched()
			}
		}()
	}
	wg.Wait()
	close(stopWatch)
	<-watched

	if backwards.Load() {
		t.Fatal("applied LSN moved backwards")
	}
	if got := ro.AppliedLSN(); stalled.Load() || got != tail {
		t.Fatalf("replica wedged: applied %d, stream tail %d", got, tail)
	}
	snap := hlc.New(1<<40, 0)
	for b := 0; b < batches; b++ {
		for k := 0; k < rowsPerBatch; k++ {
			id := int64(b*rowsPerBatch + k)
			want := int64(b)
			if k == 0 && b < batches-1 {
				want = int64(b + 1) // rewritten by the next batch
			}
			row, ok, err := ro.eng.GetAt(1, pkOf(id), snap)
			if err != nil || !ok || row[2].AsInt() != want {
				t.Fatalf("row %d = %v (ok=%v, err=%v), want balance %d", id, row, ok, err, want)
			}
		}
	}
}

// TestROIngestRejectsUndecodableBatch: a batch that fails to decode is
// counted and applies nothing; the replica's position stays put.
func TestROIngestRejectsUndecodableBatch(t *testing.T) {
	net := simnet.New(simnet.ZeroTopology())
	net.Register("rw", simnet.DC1, func(string, any) (any, error) { return nil, nil })
	ro := &RO{name: "ro1", dc: simnet.DC1, net: net, eng: storage.NewEngine(), svc: newSvcModel(0, 0)}
	ro.ap = storage.NewApplier(ro.eng)
	ro.ingest("rw", roAppendMsg{Start: 0, Bytes: []byte{0xff, 0xff, 0xff}})
	if got := ro.AppliedLSN(); got != 0 {
		t.Fatalf("applied advanced to %d past an undecodable batch", got)
	}
	if ro.decodeErrs.Load() != 1 {
		t.Fatalf("decode errors = %d, want 1", ro.decodeErrs.Load())
	}
}

// TestShipperEvictsROBehindPurgedLog: when the redo a replica still
// needs has been purged, the shipper evicts it rather than skipping the
// range and leaving the replica wedged.
func TestShipperEvictsROBehindPurgedLog(t *testing.T) {
	net := simnet.New(simnet.ZeroTopology())
	inst, err := NewInstance(Config{
		Name: "dn1", DC: simnet.DC1, Net: net,
		Group: "g1", Members: []paxos.Member{{Name: "dn1", DC: simnet.DC1}},
		Bootstrap: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Stop()
	cl := newClient(t, net, "cn1", simnet.DC1)
	inst.CreateTable(1, 0, usersSchema())
	ro, err := inst.AddRO("dn1-ro1")
	if err != nil {
		t.Fatal(err)
	}
	clock := hlc.NewClock(nil)
	for i := int64(0); i < 5; i++ {
		w := nextTxnID()
		cl.call(t, "dn1", BeginReq{TxnID: w, SnapshotTS: clock.Now()})
		cl.call(t, "dn1", WriteReq{TxnID: w, Table: 1, Op: OpInsert, Row: userRow(i, "x", i)})
		cl.call(t, "dn1", CommitReq{TxnID: w})
	}
	log := inst.Paxos().Log()
	waitFor(t, 2*time.Second, "replica caught up", func() bool {
		dlsn := inst.Paxos().DLSN()
		return dlsn > 0 && ro.AppliedLSN() >= dlsn && inst.MinROAck() >= dlsn
	})
	// Break the purge invariant on purpose: pretend the replica is still
	// at LSN 0 and purge past it. A duplicate ack still in flight can
	// move the cursor back up before the shipper reads it, so repeat.
	log.Purge(log.FlushedLSN())
	waitFor(t, 2*time.Second, "eviction", func() bool {
		inst.mu.Lock()
		inst.roCur[ro.name], inst.roAck[ro.name] = 0, 0
		inst.mu.Unlock()
		inst.shipToROs()
		ev := inst.EvictedROs()
		return len(ev) == 1 && ev[0] == ro.name
	})
	if _, err := log.ReadBytes(0, 1); !errors.Is(err, wal.ErrPurged) {
		t.Fatalf("read below base: %v, want ErrPurged", err)
	}
}

// TestStaleROAckKeepsCursorAtAckedPosition: acks travel on goroutines
// of their own, so an old one can land after newer ones. The shipping
// cursor must never sit below the best acked position — redo below it
// may be purged, and shipping from there would wrongly evict a healthy
// replica.
func TestStaleROAckKeepsCursorAtAckedPosition(t *testing.T) {
	inst := &Instance{roCur: map[string]wal.LSN{"ro1": 300}, roAck: map[string]wal.LSN{"ro1": 0}}
	for _, step := range []struct{ ack, cur wal.LSN }{
		{200, 200}, // behind the cursor: rewind to it
		{100, 200}, // stale: no rewind below the acked position
		{250, 250}, // ahead of the cursor: follow the replica forward
	} {
		inst.handleROAck(roAck{From: "ro1", Applied: step.ack})
		if cur := inst.roCur["ro1"]; cur != step.cur {
			t.Fatalf("after ack %d: cursor %d, want %d", step.ack, cur, step.cur)
		}
	}
}

// TestEvictedROFailsReads: an evicted replica gets no more redo, so a
// read waiting for a position it has not reached fails instead of
// waiting forever.
func TestEvictedROFailsReads(t *testing.T) {
	inst, cl, _ := singleInstance(t)
	inst.CreateTable(1, 0, usersSchema())
	ro, err := inst.AddRO("dn1-ro1")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := cl.net.Call(cl.name, ro.name, ROReadReq{Table: 1, PK: pkOf(1),
			SnapshotTS: inst.Clock().Now(), MinLSN: 1 << 40})
		done <- err
	}()
	waitFor(t, 2*time.Second, "parked reader", func() bool {
		ro.mu.Lock()
		defer ro.mu.Unlock()
		return len(ro.waiters) == 1
	})
	inst.mu.Lock()
	inst.evictLocked(ro.name)
	inst.mu.Unlock()
	select {
	case err := <-done:
		if !errors.Is(err, ErrROEvicted) {
			t.Fatalf("read on evicted replica: %v, want ErrROEvicted", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("read still parked after eviction")
	}
}
