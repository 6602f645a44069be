package executor

import (
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/htap"
	"repro/internal/sql"
	"repro/internal/types"
	"repro/internal/vector"
)

// mixedRows builds a deterministic dataset mixing ints, floats, strings
// and NULLs — the shapes the typed filter/agg kernels special-case.
func mixedRows(n int) []types.Row {
	rows := make([]types.Row, n)
	for i := range rows {
		r := types.Row{
			types.Int(int64(i % 7)),
			types.Float(float64(i%50) * 1.5),
			types.Str(fmt.Sprintf("s%d", i%5)),
			types.Int(int64(i)),
		}
		if i%11 == 0 {
			r[0] = types.Null()
		}
		if i%13 == 0 {
			r[1] = types.Null()
		}
		rows[i] = r
	}
	return rows
}

var mixedCols = []string{"c0", "c1", "c2", "c3"}

// assertSameRows requires positionally identical output.
func assertSameRows(t *testing.T, label string, got, want []types.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s row %d: width %d vs %d", label, i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			a, b := got[i][j], want[i][j]
			if a.IsNull() != b.IsNull() || (!a.IsNull() && a.Compare(b) != 0) {
				t.Fatalf("%s row %d col %d: %v vs %v", label, i, j, a, b)
			}
		}
	}
}

// The ref* functions are row-at-a-time reference oracles: plain loops
// over sql.Eval stating each operator's contract, which the typed and
// encoded batch kernels must reproduce exactly.

func mustEval(t *testing.T, e sql.Expr, row types.Row) types.Value {
	t.Helper()
	v, err := sql.Eval(e, row)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func refFilter(t *testing.T, rows []types.Row, pred sql.Expr) []types.Row {
	var out []types.Row
	for _, r := range rows {
		if mustEval(t, pred, r).IsTruthy() {
			out = append(out, r)
		}
	}
	return out
}

func refProject(t *testing.T, rows []types.Row, exprs []sql.Expr) []types.Row {
	var out []types.Row
	for _, r := range rows {
		p := make(types.Row, len(exprs))
		for i, e := range exprs {
			p[i] = mustEval(t, e, r)
		}
		out = append(out, p)
	}
	return out
}

// refJoin: every left row in order, its key-equal right rows in right
// order (NULL keys never match), kept when the residual holds; an outer
// left row with no survivor is null-extended.
func refJoin(t *testing.T, left, right []types.Row, lkeys, rkeys []sql.Expr, residual sql.Expr, outer bool) []types.Row {
	key := func(exprs []sql.Expr, r types.Row) (string, bool) {
		vals := make([]types.Value, len(exprs))
		for i, e := range exprs {
			if vals[i] = mustEval(t, e, r); vals[i].IsNull() {
				return "", false
			}
		}
		return string(types.EncodeKey(nil, vals...)), true
	}
	var out []types.Row
	for _, l := range left {
		lk, lok := key(lkeys, l)
		matched := false
		for _, r := range right {
			if rk, rok := key(rkeys, r); !lok || !rok || lk != rk {
				continue
			}
			joined := append(append(types.Row{}, l...), r...)
			if residual != nil && !mustEval(t, residual, joined).IsTruthy() {
				continue
			}
			matched = true
			out = append(out, joined)
		}
		if outer && !matched {
			out = append(out, append(append(types.Row{}, l...), make(types.Row, len(right[0]))...))
		}
	}
	return out
}

// refAgg groups on the encoded group key, feeds every value through the
// boxed accumulator and emits groups in key order; a global aggregate
// over no rows still yields one row.
func refAgg(t *testing.T, rows []types.Row, group []sql.Expr, aggs []AggSpec) []types.Row {
	groups := map[string]*aggGroup{}
	for _, r := range rows {
		kv := make(types.Row, len(group))
		for i, e := range group {
			kv[i] = mustEval(t, e, r)
		}
		k := string(types.EncodeKey(nil, kv...))
		g := groups[k]
		if g == nil {
			g = &aggGroup{keyVals: kv}
			for _, a := range aggs {
				g.states = append(g.states, newAggState(a))
			}
			groups[k] = g
		}
		for i, a := range aggs {
			v := types.Int(1)
			if !a.Star {
				v = mustEval(t, a.Arg, r)
			}
			g.states[i].add(v)
		}
	}
	if len(group) == 0 && len(groups) == 0 {
		g := &aggGroup{}
		for _, a := range aggs {
			g.states = append(g.states, newAggState(a))
		}
		groups[""] = g
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []types.Row
	for _, k := range keys {
		row := append(types.Row{}, groups[k].keyVals...)
		for _, st := range groups[k].states {
			row = append(row, st.final(AggComplete)...)
		}
		out = append(out, row)
	}
	return out
}

// runRef executes a batch plan over rows and compares it to want.
func runRef(t *testing.T, label string, rows []types.Row, cols []string,
	want []types.Row, batchOp func(BatchOperator) BatchOperator) {
	t.Helper()
	got, err := CollectBatch(batchOp(NewBatchRowsSource(cols, rows)))
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	assertSameRows(t, label, got, want)
}

func TestBatchFilterEquivalence(t *testing.T) {
	rows := mixedRows(3000)
	preds := map[string]sql.Expr{
		"int-eq":       bin("=", col(0), lit(types.Int(3))),
		"int-ne":       bin("<>", col(0), lit(types.Int(3))),
		"int-lt-float": bin("<", col(0), lit(types.Float(3.5))),
		"float-ge":     bin(">=", col(1), lit(types.Float(30))),
		"float-le-int": bin("<=", col(1), lit(types.Int(40))),
		"str-eq":       bin("=", col(2), lit(types.Str("s3"))),
		"str-gt":       bin(">", col(2), lit(types.Str("s2"))),
		"lit-left":     bin(">", lit(types.Int(4)), col(0)),
		"and-chain": bin("AND", bin(">", col(3), lit(types.Int(10))),
			bin("<=", col(0), lit(types.Int(5)))),
		"between":         &sql.Between{E: col(0), Lo: lit(types.Int(2)), Hi: lit(types.Int(5))},
		"not-between":     &sql.Between{E: col(0), Lo: lit(types.Int(2)), Hi: lit(types.Int(5)), Not: true},
		"between-null-lo": &sql.Between{E: col(0), Lo: lit(types.Null()), Hi: lit(types.Int(5))},
		"between-null-hi": &sql.Between{E: col(0), Lo: lit(types.Int(2)), Hi: lit(types.Null())},
		"is-null":         &sql.IsNull{E: col(0)},
		"is-not-null":     &sql.IsNull{E: col(0), Not: true},
		"null-literal":    bin("=", col(0), lit(types.Null())),
		"col-col":         bin("<", col(0), col(3)), // residual path
		"or-residual": bin("OR", bin("=", col(0), lit(types.Int(1))),
			bin("=", col(2), lit(types.Str("s4")))),
	}
	for name, pred := range preds {
		runRef(t, "filter/"+name, rows, mixedCols, refFilter(t, rows, pred),
			func(in BatchOperator) BatchOperator { return &BatchFilter{Input: in, Pred: pred} })
	}
}

func TestBatchProjectEquivalence(t *testing.T) {
	rows := mixedRows(2000)
	exprs := []sql.Expr{bin("*", col(1), col(3)), bin("+", col(3), lit(types.Int(1))), col(2)}
	runRef(t, "project/exprs", rows, mixedCols, refProject(t, rows, exprs),
		func(in BatchOperator) BatchOperator {
			return &BatchProject{Input: in, Exprs: exprs, Names: []string{"p", "q", "c2"}}
		})
	// All-column-ref projections move no data: in place, or as a view
	// when a column appears twice.
	for _, refs := range [][]sql.Expr{{col(2), col(0)}, {col(2), col(0), col(2)}} {
		runRef(t, fmt.Sprintf("project/colrefs-%d", len(refs)), rows, mixedCols, refProject(t, rows, refs),
			func(in BatchOperator) BatchOperator {
				return &BatchProject{Input: in, Exprs: refs, Names: make([]string, len(refs))}
			})
	}
}

func TestBatchSortLimitEquivalence(t *testing.T) {
	rows := mixedRows(2500)
	keys := []SortKey{{Expr: col(0)}, {Expr: col(1), Desc: true}}
	// Stable order: c0 ascending (NULL first), then c1 descending.
	sorted := append([]types.Row(nil), rows...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if c := sorted[i][0].Compare(sorted[j][0]); c != 0 {
			return c < 0
		}
		return sorted[i][1].Compare(sorted[j][1]) > 0
	})
	runRef(t, "sort", rows, mixedCols, sorted,
		func(in BatchOperator) BatchOperator { return &BatchSort{Input: in, Keys: keys} })
	for _, n := range []int{0, 1, 1000, 1024, 1500, 5000} {
		runRef(t, fmt.Sprintf("limit-%d", n), rows, mixedCols, rows[:min(n, len(rows))],
			func(in BatchOperator) BatchOperator { return &BatchLimit{Input: in, N: n} })
	}
}

func TestBatchHashJoinEquivalence(t *testing.T) {
	left := mixedRows(1700) // NULL keys at i%11
	var right []types.Row
	for i := 0; i < 40; i++ {
		k := types.Int(int64(i % 9)) // keys 7,8 never match left's c0
		if i%10 == 0 {
			k = types.Null()
		}
		right = append(right, types.Row{k, types.Str(fmt.Sprintf("r%d", i))})
	}
	rcols := []string{"k", "v"}
	cases := []struct {
		name     string
		outer    bool
		residual sql.Expr
	}{
		{"inner", false, nil},
		{"outer", true, nil},
		{"inner-residual", false, bin(">", col(3), col(5))}, // l.c3 > r pos in joined layout
		{"outer-residual", true, bin(">", col(3), col(5))},
	}
	for _, tc := range cases {
		want := refJoin(t, left, right, []sql.Expr{col(0)}, []sql.Expr{col(0)}, tc.residual, tc.outer)
		got, err := CollectBatch(&BatchHashJoin{
			Left: NewBatchRowsSource(mixedCols, left), Right: NewBatchRowsSource(rcols, right),
			LeftKeys: []sql.Expr{col(0)}, RightKeys: []sql.Expr{col(0)},
			Residual: tc.residual, Outer: tc.outer})
		if err != nil {
			t.Fatalf("join/%s: %v", tc.name, err)
		}
		assertSameRows(t, "join/"+tc.name, got, want)
	}
	// Expression keys (non-colref) exercise the scratch-eval probe path.
	exprKey := []sql.Expr{bin("+", col(0), lit(types.Int(1)))}
	want := refJoin(t, left, right, exprKey, exprKey, nil, false)
	got, err := CollectBatch(&BatchHashJoin{
		Left: NewBatchRowsSource(mixedCols, left), Right: NewBatchRowsSource(rcols, right),
		LeftKeys:  []sql.Expr{bin("+", col(0), lit(types.Int(1)))},
		RightKeys: []sql.Expr{bin("+", col(0), lit(types.Int(1)))}})
	if err != nil {
		t.Fatal(err)
	}
	assertSameRows(t, "join/expr-keys", got, want)
}

func TestBatchHashAggEquivalence(t *testing.T) {
	rows := mixedRows(3100)
	aggs := []AggSpec{
		{Func: "COUNT", Star: true},
		{Func: "COUNT", Arg: col(1)},
		{Func: "SUM", Arg: col(1)},
		{Func: "SUM", Arg: col(3)},
		{Func: "AVG", Arg: col(1)},
		{Func: "MIN", Arg: col(3)},
		{Func: "MAX", Arg: col(1)},
		{Func: "MIN", Arg: col(2)},
		{Func: "SUM", Arg: bin("*", col(1), col(3))}, // complex arg
	}
	names := []string{"cnt", "cnt1", "s1", "s3", "a1", "mn", "mx", "mns", "sexpr"}
	// Grouped (NULL group key included) and global (fused kernels).
	for _, group := range [][]sql.Expr{{col(0), col(2)}, nil} {
		label := "agg/grouped"
		gnames := append([]string{"g0", "g1"}, names...)
		if group == nil {
			label = "agg/global"
			gnames = names
		}
		runRef(t, label, rows, mixedCols, refAgg(t, rows, group, aggs),
			func(in BatchOperator) BatchOperator {
				return &BatchHashAgg{Input: in, GroupBy: group, Aggs: aggs, Mode: AggComplete, Names: gnames}
			})
	}
	// Empty input: the global group must still emit one row.
	runRef(t, "agg/empty-global", nil, mixedCols, refAgg(t, nil, nil, aggs),
		func(in BatchOperator) BatchOperator {
			return &BatchHashAgg{Input: in, Aggs: aggs, Mode: AggComplete, Names: names}
		})
}

// TestBatchTwoPhaseAggEquivalence is the MPP invariant on mixed data:
// partial fragments merged by a final aggregation equal one
// complete-mode aggregation over all rows.
func TestBatchTwoPhaseAggEquivalence(t *testing.T) {
	rows := mixedRows(2600)
	shards := [][]types.Row{rows[:900], rows[900:1800], rows[1800:]}
	group := []sql.Expr{col(0)}
	aggs := []AggSpec{{Func: "COUNT", Star: true}, {Func: "SUM", Arg: col(1)}, {Func: "AVG", Arg: col(3)}}
	finalGroup := []sql.Expr{&sql.ColumnRef{Column: "g0", Index: 0}}
	names := []string{"g0", "cnt", "s", "a"}

	want, err := CollectBatch(&BatchHashAgg{
		Input: NewBatchRowsSource(mixedCols, rows), GroupBy: group, Aggs: aggs, Names: names})
	if err != nil {
		t.Fatal(err)
	}
	var partials []BatchOperator
	for _, sh := range shards {
		partials = append(partials, &BatchHashAgg{
			Input: NewBatchRowsSource(mixedCols, sh), GroupBy: group, Aggs: aggs, Mode: AggPartial})
	}
	got, err := CollectBatch(&BatchHashAgg{
		Input:   &BatchGather{Inputs: partials},
		GroupBy: finalGroup, Aggs: aggs, Mode: AggFinal, Names: names})
	if err != nil {
		t.Fatal(err)
	}
	assertSameRows(t, "two-phase", got, want)
}

// TestRunBatchFragmentsEquivalence pushes fragments through scheduled
// exchange queues (tiny high-water mark to force backpressure parking)
// and checks the gathered stream is the fragments' rows in fragment
// order.
func TestRunBatchFragmentsEquivalence(t *testing.T) {
	sched := htap.NewScheduler(htap.Config{})
	defer sched.Stop()
	rows := mixedRows(2200)
	shards := [][]types.Row{rows[:800], rows[800:1600], rows[1600:]}
	var assign []BatchFragmentAssignment
	for _, sh := range shards {
		assign = append(assign, BatchFragmentAssignment{Op: NewBatchRowsSource(mixedCols, sh), Sched: sched})
	}
	got, err := CollectBatch(RunBatchFragments(htap.GroupAP, assign, 1))
	if err != nil {
		t.Fatal(err)
	}
	assertSameRows(t, "fragments", got, rows)
}

func TestBatchQueueBackpressure(t *testing.T) {
	q := NewBatchQueue(2)
	mk := func() *vector.Batch { return vector.FromRows(mixedRows(4), 4) }
	for i := 0; i < 2; i++ {
		if ok, _ := q.TryPush(mk()); !ok {
			t.Fatalf("push %d blocked below high water", i)
		}
	}
	ok, wait := q.TryPush(mk())
	if ok || wait == nil {
		t.Fatal("third push should block with a wake channel")
	}
	select {
	case <-wait:
		t.Fatal("wake fired while queue still full")
	default:
	}
	if _, err := q.Pop(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-wait:
	case <-time.After(time.Second):
		t.Fatal("pop did not wake blocked producer")
	}
	if ok, _ := q.TryPush(mk()); !ok {
		t.Fatal("push after drain should succeed")
	}
	q.CloseWith(nil)
	// Closed queue: pushes drop, buffered batches stay poppable.
	if ok, _ := q.TryPush(mk()); !ok {
		t.Fatal("push to closed queue should report done")
	}
	if b, err := q.Pop(); err != nil || b.NumRows() != 4 {
		t.Fatalf("buffered batch lost: %v %v", b, err)
	}
	if _, err := q.Pop(); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Pop(); !errors.Is(err, ErrEOF) {
		t.Fatalf("want EOF, got %v", err)
	}
}

// TestBatchRowsRoundTrip columnarizes rows across a batch boundary
// and materializes them back unchanged.
func TestBatchRowsRoundTrip(t *testing.T) {
	rows := mixedRows(1300)
	got, err := CollectBatch(NewBatchRowsSource(mixedCols, rows))
	if err != nil {
		t.Fatal(err)
	}
	assertSameRows(t, "roundtrip", got, rows)
}
