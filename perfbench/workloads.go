package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/types"
	"repro/internal/workload/sysbench"
	"repro/internal/workload/tpch"
)

const (
	// sbRows is the sysbench table size shared by oltp-point and
	// oltp-write; sbParts its partition count.
	sbRows  = 20000
	sbParts = 8
	// tpchSF is the TPC-H scale (SF 1 = 6,000 lineitem rows here).
	tpchSF    = 2
	tpchParts = 8
	// tpchDataSeed fixes the TPC-H database, as dbgen does: row counts
	// and value skew, and so every query's cost, are the same for every
	// --seed, which only orders each session's queries.
	tpchDataSeed = 1
	// roWait bounds RO convergence after the TPC-H load, as in the
	// Fig. 10 experiment. A timeout is a failed set-up, never retried.
	roWait = 30 * time.Second
)

// tpchColumnIndexed are the tables Fig. 10's column-index configuration
// builds column indexes for.
var tpchColumnIndexed = []string{"lineitem", "orders", "partsupp", "part", "customer", "supplier"}

// opFunc runs one operation and returns its class (the statement kind
// whose per-class median feeds q_geomean_ms), the latency of the calls
// it made into the session, and its error. Generating the op's inputs
// happens before the latency clock starts.
type opFunc func() (class int, lat time.Duration, err error)

// checkError is an output check that failed: the program answered, but
// wrongly. It fails the run.
type checkError struct{ msg string }

func (e *checkError) Error() string { return "output check failed: " + e.msg }

func checkFailed(format string, args ...any) error {
	return &checkError{msg: fmt.Sprintf(format, args...)}
}

// workload is one set of inputs the benchmark runs. A fresh value is
// made for every set-up.
type workload interface {
	// config is the cluster the workload runs on.
	config() core.Config
	// load fills a new cluster, waits for replicas and indexes, warms
	// every CN, and reads the reference answers the output checks use.
	load(c *core.Cluster, seed int64, st *setupStats) error
	// newOp binds closed-loop client idx of clients to a session; each
	// client draws its own seeded input stream.
	newOp(ss *session, seed int64, idx, clients int) (opFunc, error)
	// classes is the number of op classes newOp's ops report.
	classes() int
	// verify runs the output checks that follow the measured window.
	verify(c *core.Cluster) error
}

// workloads maps each workload name to its constructor.
var workloads = map[string]func() workload{
	"oltp-point": func() workload { return &oltpPoint{} },
	"oltp-write": func() workload { return &oltpWrite{} },
	"tpch-ap":    func() workload { return &tpchAP{} },
}

// baseConfig is the paper's three-DC deployment: two DN groups, each a
// Paxos group with one member per DC, at zero simulated RTT so the run
// measures the program's CPU path rather than the host's sleep floor.
func baseConfig() core.Config {
	topo := simnet.ZeroTopology()
	return core.Config{DCs: 3, MultiDC: true, DNGroups: 2, Topology: &topo}
}

// ---- oltp-point ---------------------------------------------------------

// oltpPoint sends auto-commit primary-key SELECTs as SQL text.
type oltpPoint struct {
	ref   []string // column c by id, read once at set-up
	texts []string // the SELECT text for each id
}

func (w *oltpPoint) config() core.Config { return baseConfig() }
func (w *oltpPoint) classes() int        { return 1 }

func (w *oltpPoint) load(c *core.Cluster, seed int64, _ *setupStats) error {
	s := c.CN(simnet.DC1).NewSession()
	if err := sysbench.Load(s, sysbench.Config{Rows: sbRows, Partitions: sbParts, Seed: seed}); err != nil {
		return fmt.Errorf("load sbtest: %w", err)
	}
	ref, err := readSbtest(s, sbRows)
	if err != nil {
		return err
	}
	w.ref = ref
	w.texts = make([]string, sbRows)
	for id := range w.texts {
		w.texts[id] = fmt.Sprintf("SELECT c FROM %s WHERE id = %d", sysbench.TableName, id)
	}
	// Warm every CN's plan cache with the one statement shape.
	for _, cn := range c.CNs() {
		cs := cn.NewSession()
		for id := 0; id < 100; id++ {
			res, err := cs.Execute(w.texts[id])
			if err != nil {
				return fmt.Errorf("warm-up on %s: %w", cn.Name(), err)
			}
			if err := checkPoint(w.ref, id, res.Rows); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *oltpPoint) newOp(ss *session, seed int64, idx, clients int) (opFunc, error) {
	rng := rand.New(rand.NewSource(clientSeed(seed, idx)))
	return func() (int, time.Duration, error) {
		id := rng.Intn(len(w.texts))
		text := w.texts[id]
		ss.timeParse(text)
		start := time.Now()
		res, err := ss.execute(text)
		lat := time.Since(start)
		if err != nil {
			return 0, lat, err
		}
		return 0, lat, checkPoint(w.ref, id, res.Rows)
	}, nil
}

func (w *oltpPoint) verify(*core.Cluster) error { return nil }

// checkPoint checks one point read against the row loaded for its id.
func checkPoint(ref []string, id int, rows []types.Row) error {
	if len(rows) != 1 || len(rows[0]) != 1 {
		return checkFailed("id %d: want 1 row of 1 column, got %v", id, rows)
	}
	if got := rows[0][0]; got.K != types.KindString || got.S != ref[id] {
		return checkFailed("id %d: c = %v, loaded %q", id, got, ref[id])
	}
	return nil
}

// readSbtest scans sbtest and returns column c by id, checking that the
// scan returns each id in [0, rows) exactly once.
func readSbtest(s *core.Session, rows int) ([]string, error) {
	res, err := s.Execute("SELECT id, c FROM " + sysbench.TableName)
	if err != nil {
		return nil, fmt.Errorf("scan sbtest: %w", err)
	}
	return sbtestByID(res.Rows, rows)
}

// sbtestByID indexes scanned (id, c) rows by id; every id in [0, rows)
// must appear exactly once.
func sbtestByID(got []types.Row, rows int) ([]string, error) {
	if len(got) != rows {
		return nil, checkFailed("sbtest scan returned %d rows, want %d", len(got), rows)
	}
	out := make([]string, rows)
	seen := make([]bool, rows)
	for _, r := range got {
		id := r[0].AsInt()
		if id < 0 || id >= int64(rows) || seen[id] {
			return nil, checkFailed("sbtest scan: id %d out of range or repeated", id)
		}
		seen[id] = true
		out[id] = r[1].AsString()
	}
	return out, nil
}

// ---- oltp-write ---------------------------------------------------------

// oltpWrite runs sysbench oltp_write_only transactions through
// prepared statements: each is parsed once per session, so no op parses,
// and DML takes no optimizer plan. Unlike Session.ExecuteStmt, which
// bypasses tracing, each prepared execution opens its own statement
// trace when the cluster traces, so its write RPC spans are seen.
type oltpWrite struct{}

const (
	sqlUpdateIndex = "UPDATE sbtest SET k = k + 1 WHERE id = ?"
	sqlUpdateNon   = "UPDATE sbtest SET c = ? WHERE id = ?"
	sqlDelete      = "DELETE FROM sbtest WHERE id = ?"
	sqlInsert      = "INSERT INTO sbtest (id, k, c, pad) VALUES (?, ?, ?, ?)"
)

func (w *oltpWrite) config() core.Config { return baseConfig() }
func (w *oltpWrite) classes() int        { return 1 }

func (w *oltpWrite) load(c *core.Cluster, seed int64, _ *setupStats) error {
	s := c.CN(simnet.DC1).NewSession()
	if err := sysbench.Load(s, sysbench.Config{Rows: sbRows, Partitions: sbParts, Seed: seed}); err != nil {
		return fmt.Errorf("load sbtest: %w", err)
	}
	// Warm every CN with a few transactions of the measured shape, so
	// the workload's own stream starts hot.
	cns := c.CNs()
	for i, cn := range cns {
		op, err := w.newOp(newSession(cn.NewSession(), false), seed^0x5eed, i, len(cns))
		if err != nil {
			return err
		}
		for j := 0; j < 20; j++ {
			if _, _, err := op(); err != nil {
				return fmt.Errorf("warm-up on %s: %w", cn.Name(), err)
			}
		}
	}
	return nil
}

func (w *oltpWrite) newOp(ss *session, seed int64, idx, clients int) (opFunc, error) {
	var stmts [4]*core.Prepared
	for i, text := range []string{sqlUpdateIndex, sqlUpdateNon, sqlDelete, sqlInsert} {
		p, err := ss.s.Prepare(text)
		if err != nil {
			return nil, fmt.Errorf("prepare %q: %w", text, err)
		}
		stmts[i] = p
	}
	rng := rand.New(rand.NewSource(clientSeed(seed, idx)))
	return func() (int, time.Duration, error) {
		ids := distinctIDs(rng, 3, idx, clients)
		k := rng.Intn(sbRows)
		c1, c2, pad := payload(rng, 32), payload(rng, 32), payload(rng, 16)
		start := time.Now()
		err := ss.txn(func() error {
			if err := ss.executePrepared(stmts[0], types.Int(ids[0])); err != nil {
				return err
			}
			if err := ss.executePrepared(stmts[1], types.Str(c1), types.Int(ids[1])); err != nil {
				return err
			}
			if err := ss.executePrepared(stmts[2], types.Int(ids[2])); err != nil {
				return err
			}
			return ss.executePrepared(stmts[3], types.Int(ids[2]), types.Int(int64(k)),
				types.Str(c2), types.Str(pad))
		})
		return 0, time.Since(start), err
	}, nil
}

func (w *oltpWrite) verify(c *core.Cluster) error {
	s := c.CN(simnet.DC1).NewSession()
	return checkWriteTable(s, c)
}

// checkWriteTable checks what oltp_write_only must preserve: the row
// count, each id present once, and no 2PC branch left undecided.
func checkWriteTable(s *core.Session, c *core.Cluster) error {
	res, err := s.Execute("SELECT COUNT(*) FROM " + sysbench.TableName)
	if err != nil {
		return fmt.Errorf("count sbtest: %w", err)
	}
	if err := checkCount(res.Rows, sbRows); err != nil {
		return err
	}
	if _, err := readSbtest(s, sbRows); err != nil {
		return err
	}
	for _, inst := range leaders(c) {
		if n := inst.InDoubtBranches(); n > 0 {
			return checkFailed("DN %s has %d in-doubt branches", inst.Name(), n)
		}
	}
	return nil
}

// checkCount checks a COUNT(*) answer.
func checkCount(rows []types.Row, want int64) error {
	if len(rows) != 1 || len(rows[0]) != 1 || rows[0][0].AsInt() != want {
		return checkFailed("COUNT(*) = %v, want %d", rows, want)
	}
	return nil
}

// distinctIDs draws n distinct uniform ids from client idx's share of
// sbtest: the ids congruent to idx modulo clients. Concurrent clients
// so never write the same row, and no op fails on an SI write-write
// conflict, while every client's ids still spread over every shard.
func distinctIDs(rng *rand.Rand, n, idx, clients int) []int64 {
	out := make([]int64, 0, n)
	for len(out) < n {
		id := int64(idx + clients*rng.Intn(sbRows/clients))
		dup := false
		for _, o := range out {
			dup = dup || o == id
		}
		if !dup {
			out = append(out, id)
		}
	}
	return out
}

func payload(rng *rand.Rand, n int) string {
	const alpha = "abcdefghijklmnopqrstuvwxyz0123456789"
	b := make([]byte, n)
	for i := range b {
		b[i] = alpha[rng.Intn(len(alpha))]
	}
	return string(b)
}

// ---- tpch-ap ------------------------------------------------------------

// tpchAP runs the 22 TPC-H queries on AP read-only replicas with column
// indexes and MPP.
type tpchAP struct {
	queries  []tpch.Query
	answers  [][]types.Row // warm-up answer per query
	lineitem int64         // rows loaded, counted in RW storage
}

func (w *tpchAP) config() core.Config {
	cfg := baseConfig()
	cfg.ROsPerDN = 1
	// As in Fig. 10: every query is planned for the AP path.
	cfg.TPCostThreshold = 1
	return cfg
}

func (w *tpchAP) classes() int { return len(tpch.Queries()) }

func (w *tpchAP) load(c *core.Cluster, _ int64, st *setupStats) error {
	s := c.CN(simnet.DC1).NewSession()
	if err := tpch.Load(s, tpch.Config{SF: tpchSF, Partitions: tpchParts, Seed: tpchDataSeed}); err != nil {
		return fmt.Errorf("load TPC-H: %w", err)
	}
	loaded := time.Now()
	if err := c.EnableAPReplicas(1); err != nil {
		return err
	}
	if err := c.WaitROConvergence(roWait); err != nil {
		return fmt.Errorf("after the TPC-H load: %w", err)
	}
	st.catchup = time.Since(loaded)
	for _, tbl := range tpchColumnIndexed {
		if err := c.EnableColumnIndexes(tbl); err != nil {
			return fmt.Errorf("column index on %s: %w", tbl, err)
		}
	}
	n, err := storedRows(c, "lineitem")
	if err != nil {
		return err
	}
	w.lineitem = n
	// The warm-up answers below are the reference only if the replicas
	// the AP path reads hold every loaded row.
	if err := w.verify(c); err != nil {
		return fmt.Errorf("after the TPC-H load: %w", err)
	}
	// Warm every CN with every query; the first CN's answers are the
	// reference, and every other CN must agree with them.
	w.queries = tpch.Queries()
	w.answers = make([][]types.Row, len(w.queries))
	for i, cn := range c.CNs() {
		cs := cn.NewSession()
		for qi, q := range w.queries {
			res, err := cs.Execute(q.SQL)
			if err != nil {
				return fmt.Errorf("warm-up Q%d on %s: %w", q.ID, cn.Name(), err)
			}
			if i == 0 {
				w.answers[qi] = res.Rows
			} else if err := sameAnswer(q.ID, w.answers[qi], res.Rows); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *tpchAP) newOp(ss *session, seed int64, idx, clients int) (opFunc, error) {
	rng := rand.New(rand.NewSource(clientSeed(seed, idx)))
	var order []int
	return func() (int, time.Duration, error) {
		// Each round runs all 22 queries in a fresh shuffled order, so
		// which queries run side by side on concurrent sessions changes
		// from round to round instead of staying locked for the run.
		if len(order) == 0 {
			order = rng.Perm(len(w.queries))
		}
		qi := order[0]
		order = order[1:]
		q := w.queries[qi]
		ss.timeParse(q.SQL)
		start := time.Now()
		res, err := ss.execute(q.SQL)
		lat := time.Since(start)
		if err != nil {
			return qi, lat, fmt.Errorf("Q%d: %w", q.ID, err)
		}
		return qi, lat, sameAnswer(q.ID, w.answers[qi], res.Rows)
	}, nil
}

func (w *tpchAP) verify(c *core.Cluster) error {
	res, err := c.CN(simnet.DC1).NewSession().Execute("SELECT COUNT(*) FROM lineitem")
	if err != nil {
		return fmt.Errorf("AP count of lineitem: %w", err)
	}
	return checkCount(res.Rows, w.lineitem)
}

// sameAnswer checks a query's rows against its reference, in order.
// Floats may differ in the last places only: MPP fragments fold partial
// sums in arrival order.
func sameAnswer(qid int, want, got []types.Row) error {
	if len(got) != len(want) {
		return checkFailed("Q%d: %d rows, reference has %d", qid, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return checkFailed("Q%d row %d: %d columns, reference has %d", qid, i, len(got[i]), len(want[i]))
		}
		for j, wv := range want[i] {
			if !sameValue(wv, got[i][j]) {
				return checkFailed("Q%d row %d column %d: %v, reference %v", qid, i, j, got[i][j], wv)
			}
		}
	}
	return nil
}

func sameValue(a, b types.Value) bool {
	if a.K == types.KindFloat && b.K == types.KindFloat {
		scale := math.Max(1, math.Max(math.Abs(a.F), math.Abs(b.F)))
		return math.Abs(a.F-b.F) <= 1e-9*scale
	}
	return a.K == b.K && a.Equal(b)
}

// storedRows counts a table's committed rows in the RW leaders' storage.
func storedRows(c *core.Cluster, table string) (int64, error) {
	t, err := c.GMS.Table(table)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, inst := range leaders(c) {
		for shard := 0; shard < t.Shards; shard++ {
			if tbl, err := inst.Engine().Table(t.PhysicalTableID(shard)); err == nil {
				n += tbl.RowCount()
			}
		}
	}
	if n == 0 {
		return 0, errors.New("no " + table + " rows in storage")
	}
	return n, nil
}

// clientSeed derives client idx's input stream from the workload seed.
func clientSeed(seed int64, idx int) int64 {
	return seed*7919 + int64(idx)*104729 + 1
}
