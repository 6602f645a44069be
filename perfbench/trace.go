package main

import (
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sql"
	"repro/internal/types"
)

// spanStat aggregates every span that folded onto one path.
type spanStat struct {
	Count int64 `json:"count"`
	// TotalNs sums span durations; SelfNs sums each span's duration
	// minus its children's durations, floored at zero. obs spans export
	// durations but not start times, so children that overlap (parallel
	// prepares, MPP fragments) are summed rather than unioned, and the
	// parent's self time is then understated, never overstated.
	TotalNs int64 `json:"total_ns"`
	SelfNs  int64 `json:"self_ns"`
	// RPC marks program spans of one branch RPC or 2PC phase: the txn
	// layer names them "<op> dn=<dest>".
	RPC bool `json:"rpc"`
}

// fold is a flame-graph fold of span trees: one entry per path of span
// names from the benchmark's own call span down, with " dn=…" stripped
// and each program trace root named "stmt" (its name is the SQL text)
// or "COMMIT".
type fold map[string]*spanStat

func (f fold) add(path string, total, self time.Duration, rpc bool) {
	st := f[path]
	if st == nil {
		st = &spanStat{RPC: rpc}
		f[path] = st
	}
	st.Count++
	st.TotalNs += int64(total)
	if self > 0 {
		st.SelfNs += int64(self)
	}
}

func (f fold) merge(o fold) {
	for path, s := range o {
		st := f[path]
		if st == nil {
			st = &spanStat{RPC: s.RPC}
			f[path] = st
		}
		st.Count += s.Count
		st.TotalNs += s.TotalNs
		st.SelfNs += s.SelfNs
	}
}

// addTree folds the span s and its subtree under prefix.
func (f fold) addTree(prefix string, s *obs.Span, name string) {
	path := prefix + "/" + name
	d := s.Duration()
	self := d
	for _, c := range s.Children() {
		self -= c.Duration()
		cname, _ := stripDN(c.Name())
		f.addTree(path, c, cname)
	}
	_, rpc := stripDN(s.Name())
	f.add(path, d, self, rpc)
}

// stripDN removes the " dn=<dest>" suffix the txn layer puts on branch
// RPC span names and reports whether it was there.
func stripDN(name string) (string, bool) {
	if i := strings.Index(name, " dn="); i >= 0 {
		return name[:i], true
	}
	return name, false
}

// session wraps one core.Session. When traced, every call the benchmark
// makes into the session is timed as the benchmark's own span, and the
// span tree the program recorded for that call (Session.LastTrace, if
// the call produced a new one) is folded beneath it at once, so no
// statement's tree is lost when the next call replaces LastTrace.
type session struct {
	s     *core.Session
	spans fold // nil when untraced
	last  *obs.Trace
	// parse times sql.Parse on each SQL text the benchmark sends (traced
	// runs only).
	parse time.Duration
}

func newSession(s *core.Session, traced bool) *session {
	ss := &session{s: s}
	if traced {
		ss.spans = fold{}
	}
	return ss
}

// call runs fn, one call into the session named name, as a span.
func (ss *session) call(name string, fn func() error) error {
	if ss.spans == nil {
		return fn()
	}
	start := time.Now()
	err := fn()
	d := time.Since(start)
	path := "session." + name
	self := d
	if tr := ss.s.LastTrace(); tr != nil && tr != ss.last {
		ss.last = tr
		root := tr.Root()
		rootName := "stmt"
		if root.Name() == "COMMIT" {
			rootName = "COMMIT"
		}
		self -= root.Duration()
		ss.spans.addTree(path, root, rootName)
	}
	ss.spans.add(path, d, self, false)
	return err
}

// execute sends SQL text through Session.Execute.
func (ss *session) execute(text string) (*core.Result, error) {
	var res *core.Result
	err := ss.call("Execute", func() error {
		var err error
		res, err = ss.s.Execute(text)
		return err
	})
	return res, err
}

// executePrepared runs a prepared statement.
func (ss *session) executePrepared(p *core.Prepared, args ...types.Value) error {
	return ss.call("Prepared.Execute", func() error {
		_, err := p.Execute(args...)
		return err
	})
}

// txn runs body inside an explicit transaction and commits it; on a
// body error it rolls back and returns that error.
func (ss *session) txn(body func() error) error {
	if err := ss.call("BeginTxn", ss.s.BeginTxn); err != nil {
		return err
	}
	if err := body(); err != nil {
		// The body's error is the op's outcome; a failed rollback
		// leaves nothing further to undo.
		_ = ss.call("Rollback", ss.s.Rollback)
		return err
	}
	return ss.call("Commit", ss.s.Commit)
}

// timeParse times sql.Parse on text, the parse the CN repeats inside
// Execute, on traced runs only.
func (ss *session) timeParse(text string) {
	if ss.spans == nil {
		return
	}
	start := time.Now()
	// A parse error surfaces from the Execute that follows.
	_, _ = sql.Parse(text)
	ss.parse += time.Since(start)
}
