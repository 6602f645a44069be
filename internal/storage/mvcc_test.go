package storage

import (
	"errors"
	"testing"

	"repro/internal/types"
)

// TestWriterSeenActiveStaysConcurrent: a reader that saw a writer's
// version while the writer was ACTIVE must keep treating that writer as
// concurrent, even when the writer's 1PC commit is stamped at or below
// the reader's snapshot (the caller picked the timestamp before Commit
// published it). Its reads stay repeatable and overwriting the row is a
// write-write conflict, not a lost update.
func TestWriterSeenActiveStaysConcurrent(t *testing.T) {
	e, _ := newUserEngine(t)
	seed := e.Begin(now())
	if err := e.Insert(seed, 1, userRow(1, "a", 100)); err != nil {
		t.Fatal(err)
	}
	commitTxn(t, e, seed)
	pk := types.EncodeKey(nil, types.Int(1))

	writer := e.Begin(now())
	if err := e.Update(writer, 1, userRow(1, "a", 90)); err != nil {
		t.Fatal(err)
	}
	commitTS := advance() // stamped before the reader's snapshot
	reader := e.Begin(now())
	if row, ok, _ := e.Get(reader, 1, pk); !ok || row[2].AsInt() != 100 {
		t.Fatalf("reader saw %v while the writer is ACTIVE", row)
	}
	if err := e.Commit(writer, commitTS); err != nil {
		t.Fatal(err)
	}
	if row, ok, _ := e.Get(reader, 1, pk); !ok || row[2].AsInt() != 100 {
		t.Fatalf("non-repeatable read: %v after the concurrent writer committed", row)
	}
	if err := e.Update(reader, 1, userRow(1, "a", 110)); !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("overwriting a concurrent commit: %v, want ErrWriteConflict", err)
	}
	// A transaction that starts after the commit sees it.
	late := e.Begin(now())
	if row, ok, _ := e.Get(late, 1, pk); !ok || row[2].AsInt() != 90 {
		t.Fatalf("later snapshot saw %v, want the committed 90", row)
	}
}
