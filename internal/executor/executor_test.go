package executor

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/htap"
	"repro/internal/sql"
	"repro/internal/types"
	"repro/internal/vector"
)

// col builds a bound column reference.
func col(idx int) sql.Expr { return &sql.ColumnRef{Column: fmt.Sprintf("c%d", idx), Index: idx} }

func lit(v types.Value) sql.Expr { return &sql.Literal{Val: v} }

func bin(op string, l, r sql.Expr) sql.Expr { return &sql.BinaryOp{Op: op, L: l, R: r} }

// rows builds test rows of ints.
func intRows(vals ...[]int64) []types.Row {
	out := make([]types.Row, len(vals))
	for i, rv := range vals {
		row := make(types.Row, len(rv))
		for j, v := range rv {
			row[j] = types.Int(v)
		}
		out[i] = row
	}
	return out
}

// src serves rows as batches.
func src(cols []string, rows []types.Row) BatchOperator { return NewBatchRowsSource(cols, rows) }

// collect drains op, failing the test on error.
func collect(t *testing.T, op BatchOperator) []types.Row {
	t.Helper()
	rows, err := CollectBatch(op)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestRowsSourceAndCollect(t *testing.T) {
	got := collect(t, src([]string{"a"}, intRows([]int64{1}, []int64{2})))
	if len(got) != 2 || got[1][0].AsInt() != 2 {
		t.Fatalf("collect = %v", got)
	}
	if got := collect(t, src([]string{"a"}, nil)); len(got) != 0 {
		t.Fatalf("empty source = %v", got)
	}
}

func TestFilter(t *testing.T) {
	in := src([]string{"a"}, intRows([]int64{1}, []int64{5}, []int64{10}))
	got := collect(t, &BatchFilter{Input: in, Pred: bin(">", col(0), lit(types.Int(4)))})
	if len(got) != 2 || got[0][0].AsInt() != 5 {
		t.Fatalf("filter = %v", got)
	}
}

func TestProject(t *testing.T) {
	in := src([]string{"a", "b"}, intRows([]int64{3, 4}))
	p := &BatchProject{Input: in,
		Exprs: []sql.Expr{bin("*", col(0), col(1)), col(0)},
		Names: []string{"prod", "a"}}
	got := collect(t, p)
	if got[0][0].AsInt() != 12 || got[0][1].AsInt() != 3 {
		t.Fatalf("project = %v", got)
	}
	if p.Columns()[0] != "prod" {
		t.Fatal("names")
	}
	// Column references only: reordered in place, or (a column twice)
	// through a view.
	for _, tc := range []struct {
		exprs []sql.Expr
		want  [2]int64 // second row
	}{
		{[]sql.Expr{col(1), col(0)}, [2]int64{6, 5}},
		{[]sql.Expr{col(1), col(1)}, [2]int64{6, 6}},
	} {
		in := src([]string{"a", "b"}, intRows([]int64{3, 4}, []int64{5, 6}))
		got := collect(t, &BatchProject{Input: in, Exprs: tc.exprs, Names: []string{"x", "y"}})
		if len(got) != 2 || got[1][0].AsInt() != tc.want[0] || got[1][1].AsInt() != tc.want[1] {
			t.Fatalf("project %v = %v", tc.exprs, got)
		}
	}
}

func TestLimit(t *testing.T) {
	in := src([]string{"a"}, intRows([]int64{1}, []int64{2}, []int64{3}))
	if got := collect(t, &BatchLimit{Input: in, N: 2}); len(got) != 2 {
		t.Fatalf("limit = %d rows", len(got))
	}
	in2 := src([]string{"a"}, intRows([]int64{1}))
	if got := collect(t, &BatchLimit{Input: in2, N: -1}); len(got) != 1 {
		t.Fatal("negative limit should pass through")
	}
}

func TestSortMultiKey(t *testing.T) {
	in := src([]string{"a", "b"},
		intRows([]int64{1, 9}, []int64{2, 1}, []int64{1, 3}))
	got := collect(t, &BatchSort{Input: in, Keys: []SortKey{
		{Expr: col(0)}, {Expr: col(1), Desc: true},
	}})
	want := [][2]int64{{1, 9}, {1, 3}, {2, 1}}
	for i, w := range want {
		if got[i][0].AsInt() != w[0] || got[i][1].AsInt() != w[1] {
			t.Fatalf("sort[%d] = %v", i, got[i])
		}
	}
}

func TestHashJoinInner(t *testing.T) {
	left := src([]string{"l.id", "l.v"},
		intRows([]int64{1, 10}, []int64{2, 20}, []int64{3, 30}))
	right := src([]string{"r.id", "r.w"},
		intRows([]int64{2, 200}, []int64{3, 300}, []int64{3, 301}))
	j := &BatchHashJoin{Left: left, Right: right,
		LeftKeys:  []sql.Expr{col(0)},
		RightKeys: []sql.Expr{col(0)},
	}
	got := collect(t, j)
	if len(got) != 3 {
		t.Fatalf("join rows = %d", len(got))
	}
	// Row layout: l.id, l.v, r.id, r.w; matches emit in build order.
	if got[0][0].AsInt() != 2 || got[0][3].AsInt() != 200 || got[2][3].AsInt() != 301 {
		t.Fatalf("join = %v", got)
	}
	if len(j.Columns()) != 4 {
		t.Fatal("join layout")
	}
}

func TestHashJoinLeftOuter(t *testing.T) {
	left := src([]string{"l.id"}, intRows([]int64{1}, []int64{2}))
	right := src([]string{"r.id"}, intRows([]int64{2}))
	got := collect(t, &BatchHashJoin{Left: left, Right: right,
		LeftKeys: []sql.Expr{col(0)}, RightKeys: []sql.Expr{col(0)}, Outer: true})
	if len(got) != 2 {
		t.Fatalf("outer join = %v", got)
	}
	if !got[0][1].IsNull() {
		t.Fatalf("unmatched row not null-extended: %v", got[0])
	}
}

func TestHashJoinNullKeysNeverMatch(t *testing.T) {
	left := src([]string{"l.id"}, []types.Row{{types.Null()}})
	right := src([]string{"r.id"}, []types.Row{{types.Null()}})
	got := collect(t, &BatchHashJoin{Left: left, Right: right,
		LeftKeys: []sql.Expr{col(0)}, RightKeys: []sql.Expr{col(0)}})
	if len(got) != 0 {
		t.Fatalf("NULL keys joined: %v", got)
	}
}

func TestHashJoinResidual(t *testing.T) {
	left := src([]string{"l.id", "l.v"}, intRows([]int64{1, 5}, []int64{1, 50}))
	right := src([]string{"r.id", "r.w"}, intRows([]int64{1, 10}))
	// Join on id with residual l.v < r.w.
	got := collect(t, &BatchHashJoin{Left: left, Right: right,
		LeftKeys: []sql.Expr{col(0)}, RightKeys: []sql.Expr{col(0)},
		Residual: bin("<", col(1), col(3))})
	if len(got) != 1 || got[0][1].AsInt() != 5 {
		t.Fatalf("residual join = %v", got)
	}
}

func TestNestedLoopJoinNonEqui(t *testing.T) {
	left := src([]string{"a"}, intRows([]int64{1}, []int64{5}))
	right := src([]string{"b"}, intRows([]int64{3}, []int64{4}))
	got := collect(t, &BatchNestedLoopJoin{Left: left, Right: right,
		On: bin("<", col(0), col(1))})
	if len(got) != 2 || got[0][1].AsInt() != 3 || got[1][1].AsInt() != 4 {
		t.Fatalf("nl join = %v", got)
	}
	// Outer variant keeps unmatched left rows.
	left2 := src([]string{"a"}, intRows([]int64{1}, []int64{9}))
	right2 := src([]string{"b"}, intRows([]int64{3}))
	got2 := collect(t, &BatchNestedLoopJoin{Left: left2, Right: right2,
		On: bin("<", col(0), col(1)), Outer: true})
	if len(got2) != 2 || !got2[1][1].IsNull() {
		t.Fatalf("outer nl join = %v", got2)
	}
}

func TestHashAggComplete(t *testing.T) {
	in := src([]string{"g", "v"},
		intRows([]int64{1, 10}, []int64{2, 5}, []int64{1, 20}, []int64{2, 7}))
	got := collect(t, &BatchHashAgg{Input: in,
		GroupBy: []sql.Expr{col(0)},
		Aggs: []AggSpec{
			{Func: "COUNT", Star: true},
			{Func: "SUM", Arg: col(1)},
			{Func: "AVG", Arg: col(1)},
			{Func: "MIN", Arg: col(1)},
			{Func: "MAX", Arg: col(1)},
		}})
	if len(got) != 2 {
		t.Fatalf("agg = %v", got)
	}
	// Group 1: count 2, sum 30, avg 15, min 10, max 20.
	g1 := got[0]
	if g1[0].AsInt() != 1 || g1[1].AsInt() != 2 || g1[2].AsInt() != 30 ||
		g1[3].AsFloat() != 15 || g1[4].AsInt() != 10 || g1[5].AsInt() != 20 {
		t.Fatalf("group1 = %v", g1)
	}
}

func TestHashAggGlobalEmptyInput(t *testing.T) {
	got := collect(t, &BatchHashAgg{Input: src([]string{"v"}, nil), Aggs: []AggSpec{
		{Func: "COUNT", Star: true}, {Func: "SUM", Arg: col(0)},
	}})
	if len(got) != 1 {
		t.Fatalf("global agg = %v", got)
	}
	if got[0][0].AsInt() != 0 || !got[0][1].IsNull() {
		t.Fatalf("empty aggregates = %v", got[0])
	}
}

func TestHashAggDistinct(t *testing.T) {
	in := src([]string{"v"}, intRows([]int64{5}, []int64{5}, []int64{7}))
	got := collect(t, &BatchHashAgg{Input: in, Aggs: []AggSpec{
		{Func: "COUNT", Arg: col(0), Distinct: true},
		{Func: "SUM", Arg: col(0), Distinct: true},
	}})
	if got[0][0].AsInt() != 2 || got[0][1].AsInt() != 12 {
		t.Fatalf("distinct agg = %v", got)
	}
}

// TestPartialFinalAggEquivalence is the MPP invariant: splitting an
// aggregation into per-fragment partials plus a final merge must equal
// the single-phase result.
func TestPartialFinalAggEquivalence(t *testing.T) {
	all := intRows(
		[]int64{1, 10}, []int64{2, 5}, []int64{1, 20},
		[]int64{2, 7}, []int64{1, 12}, []int64{3, 100})
	aggs := []AggSpec{
		{Func: "COUNT", Star: true},
		{Func: "SUM", Arg: col(1)},
		{Func: "AVG", Arg: col(1)},
		{Func: "MIN", Arg: col(1)},
		{Func: "MAX", Arg: col(1)},
	}
	want := collect(t, &BatchHashAgg{Input: src([]string{"g", "v"}, all),
		GroupBy: []sql.Expr{col(0)}, Aggs: aggs})

	// Two phase over three "fragments".
	var partials []types.Row
	for i := 0; i < 3; i++ {
		var part []types.Row
		for j, r := range all {
			if j%3 == i {
				part = append(part, r)
			}
		}
		partials = append(partials, collect(t, &BatchHashAgg{Input: src([]string{"g", "v"}, part),
			GroupBy: []sql.Expr{col(0)}, Aggs: aggs, Mode: AggPartial})...)
	}
	partialCols := aggColumns(1, aggs, AggPartial)
	got := collect(t, &BatchHashAgg{Input: src(partialCols, partials),
		GroupBy: []sql.Expr{col(0)}, Aggs: aggs, Mode: AggFinal})
	assertSameRows(t, "partial/final", got, want)
}

func TestGatherMergesInputs(t *testing.T) {
	a := src([]string{"v"}, intRows([]int64{1}, []int64{2}))
	b := src([]string{"v"}, intRows([]int64{3}))
	got := collect(t, &BatchGather{Cols: []string{"v"}, Inputs: []BatchOperator{a, b}})
	if len(got) != 3 || got[2][0].AsInt() != 3 {
		t.Fatalf("gather = %v", got)
	}
}

func TestFragmentsOnScheduler(t *testing.T) {
	sched := htap.NewScheduler(htap.Config{})
	defer sched.Stop()
	// Three scan fragments with partial aggregation, gathered and
	// final-aggregated — a miniature MPP plan.
	aggs := []AggSpec{{Func: "SUM", Arg: col(1)}, {Func: "COUNT", Star: true}}
	var assignments []BatchFragmentAssignment
	for i := 0; i < 3; i++ {
		rows := intRows([]int64{1, int64(i + 1)}, []int64{2, int64(10 * (i + 1))})
		frag := &BatchHashAgg{Input: src([]string{"g", "v"}, rows),
			GroupBy: []sql.Expr{col(0)}, Aggs: aggs, Mode: AggPartial}
		assignments = append(assignments, BatchFragmentAssignment{Op: frag, Sched: sched})
	}
	gather := RunBatchFragments(htap.GroupAP, assignments, 0)
	got := collect(t, &BatchHashAgg{Input: gather, GroupBy: []sql.Expr{col(0)}, Aggs: aggs, Mode: AggFinal})
	if len(got) != 2 {
		t.Fatalf("groups = %d", len(got))
	}
	// Group 1: 1+2+3 = 6; group 2: 10+20+30 = 60. Counts 3 each.
	if got[0][1].AsInt() != 6 || got[0][2].AsInt() != 3 ||
		got[1][1].AsInt() != 60 || got[1][2].AsInt() != 3 {
		t.Fatalf("mpp agg = %v", got)
	}
}

func TestFragmentsWithoutScheduler(t *testing.T) {
	in := src([]string{"v"}, intRows([]int64{1}, []int64{2}))
	got := collect(t, RunBatchFragments(htap.GroupTP, []BatchFragmentAssignment{{Op: in}}, 0))
	if len(got) != 2 {
		t.Fatalf("no-scheduler fragments = %v", got)
	}
}

func TestFragmentErrorSurfacesThroughGather(t *testing.T) {
	bad := &BatchCallbackSource{Cols: []string{"v"}, Fetch: func() (*vector.Batch, error) {
		return nil, errors.New("shard unreachable")
	}}
	gather := RunBatchFragments(htap.GroupTP, []BatchFragmentAssignment{{Op: bad}}, 0)
	if _, err := CollectBatch(gather); err == nil {
		t.Fatal("fragment error swallowed")
	}
}

func TestCallbackSourceBatches(t *testing.T) {
	calls := 0
	in := &BatchCallbackSource{Cols: []string{"v"}, Fetch: func() (*vector.Batch, error) {
		calls++
		switch {
		case calls > 3:
			return nil, nil
		case calls == 2:
			return vector.FromRows(nil, 1), nil // empty batches are skipped
		}
		return vector.FromRows(intRows([]int64{int64(calls)}, []int64{int64(calls * 10)}), 1), nil
	}}
	if got := collect(t, in); len(got) != 4 {
		t.Fatalf("callback source = %v", got)
	}
}

func BenchmarkHashJoin(b *testing.B) {
	const n = 10000
	leftRows := make([]types.Row, n)
	rightRows := make([]types.Row, n)
	for i := 0; i < n; i++ {
		leftRows[i] = types.Row{types.Int(int64(i)), types.Int(int64(i * 2))}
		rightRows[i] = types.Row{types.Int(int64(i)), types.Int(int64(i * 3))}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := &BatchHashJoin{
			Left:     src([]string{"a", "b"}, leftRows),
			Right:    src([]string{"c", "d"}, rightRows),
			LeftKeys: []sql.Expr{col(0)}, RightKeys: []sql.Expr{col(0)},
		}
		rows, err := CollectBatch(j)
		if err != nil || len(rows) != n {
			b.Fatal(err)
		}
	}
}

func BenchmarkHashAgg(b *testing.B) {
	const n = 10000
	rows := make([]types.Row, n)
	for i := 0; i < n; i++ {
		rows[i] = types.Row{types.Int(int64(i % 16)), types.Int(int64(i))}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg := &BatchHashAgg{Input: src([]string{"g", "v"}, rows),
			GroupBy: []sql.Expr{col(0)},
			Aggs:    []AggSpec{{Func: "SUM", Arg: col(1)}, {Func: "COUNT", Star: true}}}
		out, err := CollectBatch(agg)
		if err != nil || len(out) != 16 {
			b.Fatal(err)
		}
	}
}
