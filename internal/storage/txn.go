// Package storage implements the DN-local transactional row store — the
// InnoDB stand-in under PolarDB-X (paper §II-C, §IV).
//
// It provides B+Tree tables with MVCC version chains, snapshot-isolation
// visibility including the PREPARED-wait rule of §IV, first-committer
// write-conflict detection, redo log generation per transaction, a
// dirty-page buffer pool bounded by the replication DLSN, and redo-based
// recovery/apply used by RO nodes and PolarDB-MT failover.
package storage

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/hlc"
	"repro/internal/wal"
)

// TxnStatus is the lifecycle state of a local transaction. The PREPARED
// state is central to HLC-SI: a reader encountering a PREPARED write must
// wait, because the writer's commit timestamp is not yet known (§IV).
type TxnStatus int32

// Transaction states.
const (
	TxnActive TxnStatus = iota
	TxnPrepared
	TxnCommitted
	TxnAborted
)

func (s TxnStatus) String() string {
	switch s {
	case TxnActive:
		return "ACTIVE"
	case TxnPrepared:
		return "PREPARED"
	case TxnCommitted:
		return "COMMITTED"
	case TxnAborted:
		return "ABORTED"
	default:
		return fmt.Sprintf("TxnStatus(%d)", int32(s))
	}
}

// Errors.
var (
	ErrWriteConflict  = errors.New("storage: write-write conflict")
	ErrTxnNotActive   = errors.New("storage: transaction not active")
	ErrUnknownTable   = errors.New("storage: unknown table")
	ErrUnknownTxn     = errors.New("storage: unknown transaction")
	ErrDuplicateKey   = errors.New("storage: duplicate primary key")
	ErrKeyNotFound    = errors.New("storage: key not found")
	ErrBadTransition  = errors.New("storage: invalid transaction state transition")
	ErrTableExists    = errors.New("storage: table already exists")
	ErrUnknownIndex   = errors.New("storage: unknown index")
	ErrTenantMismatch = errors.New("storage: table belongs to a different tenant")
)

// Txn is a local transaction on one DN shard. In a distributed
// transaction it is one participant branch, driven by the CN coordinator
// through Prepare/Commit; single-shard transactions go straight to
// Commit (1PC fast path).
type Txn struct {
	ID         uint64
	SnapshotTS hlc.Timestamp

	status    atomic.Int32
	prepareTS atomic.Uint64
	commitTS  atomic.Uint64

	// done closes when the transaction leaves PREPARED (commits/aborts);
	// readers blocked on the §IV wait rule select on it.
	done chan struct{}

	mu sync.Mutex
	// writes are the version-chain entries this txn installed, for
	// commit/abort finalization in install order.
	writes []*version
	// redo accumulates the transaction's redo records in write order.
	redo []wal.Record
	// engine backlink for finalization.
	eng *Engine

	// concurrent holds writers this transaction saw ACTIVE on a version
	// chain; hasConcurrent is its lock-free emptiness check. Such a
	// writer had not committed when we looked, after our snapshot was
	// taken, so its versions stay invisible to us and overwriting them is
	// a write-write conflict whatever commit timestamp it ends up with. A
	// 1PC caller that picks the commit timestamp before Commit publishes
	// it therefore cannot slip a lost update past first-committer-wins.
	concMu        sync.Mutex
	concurrent    map[*Txn]struct{}
	hasConcurrent atomic.Bool
}

// noteConcurrent records that t saw w's write while w was ACTIVE.
func (t *Txn) noteConcurrent(w *Txn) {
	t.concMu.Lock()
	if t.concurrent == nil {
		t.concurrent = make(map[*Txn]struct{})
	}
	t.concurrent[w] = struct{}{}
	t.concMu.Unlock()
	t.hasConcurrent.Store(true)
}

// sawConcurrent reports whether t saw w ACTIVE (nil t: no).
func (t *Txn) sawConcurrent(w *Txn) bool {
	if t == nil || !t.hasConcurrent.Load() {
		return false
	}
	t.concMu.Lock()
	defer t.concMu.Unlock()
	_, ok := t.concurrent[w]
	return ok
}

func (t *Txn) Status() TxnStatus { return TxnStatus(t.status.Load()) }

// PrepareTS returns the prepare timestamp (zero until prepared).
func (t *Txn) PrepareTS() hlc.Timestamp { return hlc.Timestamp(t.prepareTS.Load()) }

// CommitTS returns the commit timestamp (zero until committed).
func (t *Txn) CommitTS() hlc.Timestamp { return hlc.Timestamp(t.commitTS.Load()) }

// Done returns a channel closed when the transaction finishes.
func (t *Txn) Done() <-chan struct{} { return t.done }

// Redo returns the transaction's accumulated redo records. The DN ships
// these through Paxos; they are also the recovery source.
func (t *Txn) Redo() []wal.Record {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]wal.Record(nil), t.redo...)
}

func (t *Txn) appendRedo(rec wal.Record) {
	t.mu.Lock()
	t.redo = append(t.redo, rec)
	t.mu.Unlock()
}

// casStatus transitions the state machine, failing on illegal moves.
func (t *Txn) casStatus(from, to TxnStatus) error {
	if !t.status.CompareAndSwap(int32(from), int32(to)) {
		return fmt.Errorf("%w: txn %d is %v, wanted %v -> %v",
			ErrBadTransition, t.ID, t.Status(), from, to)
	}
	return nil
}
