package storage

import (
	"sync"

	"repro/internal/hlc"
	"repro/internal/types"
)

// version is one entry in a row's MVCC chain.
type version struct {
	// row is the after-image; nil marks a delete tombstone.
	row types.Row
	// txn is the writer. After commit the commit timestamp is read from
	// txn (a single source of truth, so commit atomically publishes every
	// version the transaction wrote).
	txn *Txn
	// next is the previous (older) version.
	next *version
}

// chain is a row's version chain plus its write lock. The head is the
// newest version. At most one uncommitted version can sit at the head —
// that is the row-lock discipline InnoDB enforces with record locks; here
// a second writer fails fast with ErrWriteConflict (no-wait policy, which
// under SI's first-committer-wins rule only aborts transactions that were
// doomed anyway).
type chain struct {
	mu   sync.Mutex
	head *version
}

// visibleRow walks the chain and returns the newest row version visible
// at snapshotTS for reader (§IV visibility):
//
//   - committed version: visible iff commit_ts <= snapshot_ts and the
//     reader never saw its writer ACTIVE;
//   - PREPARED version: the reader must wait for the writer to finish,
//     then re-evaluate (the commit timestamp is uncertain);
//   - ACTIVE version from another txn: invisible;
//   - reader's own writes: always visible (read-your-writes).
//
// It returns (nil, false) when no version is visible (row absent or
// tombstoned at this snapshot).
func (c *chain) visibleRow(reader *Txn, snapshotTS hlc.Timestamp) (types.Row, bool) {
	for {
		c.mu.Lock()
		v := c.head
		c.mu.Unlock()
		row, ok, wait := walkVisible(v, reader, snapshotTS)
		if wait == nil {
			return row, ok
		}
		// §IV case 2: the version is PREPARED; block until the writer
		// commits or aborts, then retry the walk.
		<-wait
	}
}

// walkVisible scans versions newest-first. It returns wait != nil when a
// PREPARED version must be awaited before visibility can be decided.
func walkVisible(v *version, reader *Txn, snapshotTS hlc.Timestamp) (types.Row, bool, <-chan struct{}) {
	for ; v != nil; v = v.next {
		w := v.txn
		if reader != nil && w == reader {
			// Own write.
			return v.row, v.row != nil, nil
		}
		switch w.Status() {
		case TxnCommitted:
			if w.CommitTS() <= snapshotTS && !reader.sawConcurrent(w) {
				return v.row, v.row != nil, nil
			}
			// Committed after our snapshot (by timestamp, or because we
			// saw it ACTIVE): look further back.
		case TxnPrepared:
			// Uncertain commit timestamp. If even the *prepare* timestamp
			// is above our snapshot, the final commit_ts (>= prepare_ts)
			// can only be higher, so the version is invisible without
			// waiting — the Clock-SI/HLC-SI fast path.
			if w.PrepareTS() > snapshotTS {
				continue
			}
			return nil, false, w.Done()
		case TxnActive:
			// §IV case 3: ACTIVE writers are invisible to us (and the
			// proof shows their commit_ts must exceed our snapshot_ts).
			// Remember the writer, so its commit stays invisible to us
			// even if the caller stamps it at or below our snapshot.
			if reader != nil {
				reader.noteConcurrent(w)
			}
			continue
		case TxnAborted:
			continue
		}
	}
	return nil, false, nil
}

// install pushes a new version for writer onto the chain, enforcing SI
// write-write conflict rules:
//
//   - another in-flight (ACTIVE/PREPARED) writer at the head → conflict;
//   - a committed head version with commit_ts > writer's snapshot_ts,
//     or whose writer this writer saw ACTIVE → first-committer-wins
//     conflict;
//
// On success the created version is returned so the txn can track it.
func (c *chain) install(writer *Txn, row types.Row) (*version, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for v := c.head; v != nil; v = v.next {
		w := v.txn
		if w == writer {
			// Second write by the same txn to the same row: stack over
			// our own earlier version.
			break
		}
		switch w.Status() {
		case TxnActive, TxnPrepared:
			return nil, ErrWriteConflict
		case TxnCommitted:
			if w.CommitTS() > writer.SnapshotTS || writer.sawConcurrent(w) {
				return nil, ErrWriteConflict
			}
			// Committed before our snapshot: safe to overwrite.
		case TxnAborted:
			// Skip aborted garbage and check the next version down.
			continue
		}
		break
	}
	nv := &version{row: row, txn: writer, next: c.head}
	c.head = nv
	return nv, nil
}

// latestCommitted returns the newest committed row (for GC decisions and
// index verification). ok is false for tombstones/absent rows.
func (c *chain) latestCommitted() (types.Row, hlc.Timestamp, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for v := c.head; v != nil; v = v.next {
		if v.txn.Status() == TxnCommitted {
			return v.row, v.txn.CommitTS(), v.row != nil
		}
	}
	return nil, 0, false
}

// vacuum trims versions strictly older than the newest committed version
// at or below horizon, and drops aborted garbage. Returns versions freed.
func (c *chain) vacuum(horizon hlc.Timestamp) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	freed := 0
	// Drop aborted heads first.
	for c.head != nil && c.head.txn.Status() == TxnAborted {
		c.head = c.head.next
		freed++
	}
	// Find the newest committed version <= horizon: everything older is
	// invisible to every current and future snapshot.
	for v := c.head; v != nil; v = v.next {
		if v.next != nil && v.next.txn.Status() == TxnAborted {
			v.next = v.next.next
			freed++
			continue
		}
		if v.txn.Status() == TxnCommitted && v.txn.CommitTS() <= horizon {
			for cut := v.next; cut != nil; cut = cut.next {
				freed++
			}
			v.next = nil
			break
		}
	}
	return freed
}
