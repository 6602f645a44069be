// Package executor implements PolarDB-X's query execution engine and
// the MPP fragment machinery (paper §VI-C/§VI-E). Every plan runs on
// batch operators that exchange column-major vector.Batch values (~1024
// rows) instead of single rows: scan sources, filter, project, hash and
// nested-loop joins, hash aggregation with a partial/final split, sort
// and limit, plus bounded exchange queues with producer backpressure
// between fragments and cooperative fragment jobs on the htap
// time-sliced scheduler. Iteration, predicate evaluation, group-key
// hashing and exchange locking amortize over the batch, which is where
// the Fig. 10 MPP and column-index speedups come from; a TP point lookup
// is simply a batch of one.
package executor

import (
	"errors"

	"repro/internal/types"
	"repro/internal/vector"
)

// ErrEOF signals operator exhaustion.
var ErrEOF = errors.New("executor: end of rows")

// BatchOperator is the batch-at-a-time volcano interface. NextBatch
// transfers ownership of the returned batch to the caller (see the
// vector.Batch ownership protocol); it returns ErrEOF when drained.
type BatchOperator interface {
	Columns() []string
	Open() error
	NextBatch() (*vector.Batch, error)
	Close() error
}

// BatchCallbackSource pulls batches lazily from a fetch function (how
// DN shard scans stream into the batch executor; fetch returns nil when
// drained).
type BatchCallbackSource struct {
	Cols  []string
	Fetch func() (*vector.Batch, error)
	done  bool
}

// Columns implements BatchOperator.
func (s *BatchCallbackSource) Columns() []string { return s.Cols }

// Open implements BatchOperator.
func (s *BatchCallbackSource) Open() error { return nil }

// NextBatch implements BatchOperator.
func (s *BatchCallbackSource) NextBatch() (*vector.Batch, error) {
	for !s.done {
		b, err := s.Fetch()
		if err != nil {
			return nil, err
		}
		if b == nil {
			s.done = true
			break
		}
		if b.NumRows() > 0 {
			return b, nil
		}
		b.Release()
	}
	return nil, ErrEOF
}

// Close implements BatchOperator.
func (s *BatchCallbackSource) Close() error { return nil }

// BatchRowsSource serves materialized rows (DN point reads, GSI
// routes, VALUES lists, sorted or aggregated output) as batches of up to
// vector.DefaultSize rows, columnarized one batch at a time. A point
// lookup is a batch of one.
type BatchRowsSource struct {
	Cols []string
	Rows []types.Row
	pos  int
}

// NewBatchRowsSource builds a source over rows with the given columns.
func NewBatchRowsSource(cols []string, rows []types.Row) *BatchRowsSource {
	return &BatchRowsSource{Cols: cols, Rows: rows}
}

// Columns implements BatchOperator.
func (s *BatchRowsSource) Columns() []string { return s.Cols }

// Open implements BatchOperator.
func (s *BatchRowsSource) Open() error { s.pos = 0; return nil }

// NextBatch implements BatchOperator.
func (s *BatchRowsSource) NextBatch() (*vector.Batch, error) {
	if s.pos >= len(s.Rows) {
		return nil, ErrEOF
	}
	n := len(s.Rows) - s.pos
	if n > vector.DefaultSize {
		n = vector.DefaultSize
	}
	b := vector.FromRows(s.Rows[s.pos:s.pos+n], len(s.Cols))
	s.pos += n
	return b, nil
}

// Close implements BatchOperator.
func (s *BatchRowsSource) Close() error { return nil }

// CollectBatch drains a batch operator into rows (the coordinator's
// final gather).
func CollectBatch(op BatchOperator) ([]types.Row, error) {
	if err := op.Open(); err != nil {
		return nil, err
	}
	defer op.Close()
	var out []types.Row
	for {
		b, err := op.NextBatch()
		if errors.Is(err, ErrEOF) {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = b.AppendRows(out)
		b.Release()
	}
}
