package executor

import (
	"fmt"
	"testing"

	"repro/internal/sql"
	"repro/internal/types"
)

// Micro-benchmark for the batch engine: a filter→join→agg pipeline at
// several cardinalities. It includes columnarization of the row inputs
// (as the DN does once at the source), so the engine pays its full cost.

var factCols = []string{"k", "a", "b"}
var dimCols = []string{"k", "name"}

func benchData(n int) (fact, dim []types.Row) {
	fact = make([]types.Row, n)
	for i := 0; i < n; i++ {
		fact[i] = types.Row{
			types.Int(int64(i % 100)),
			types.Float(float64(i) * 0.5),
			types.Int(int64(i % 1000)),
		}
	}
	dim = make([]types.Row, 100)
	for k := 0; k < 100; k++ {
		dim[k] = types.Row{types.Int(int64(k)), types.Str(fmt.Sprintf("name%d", k%10))}
	}
	return fact, dim
}

func benchAggs() []AggSpec {
	return []AggSpec{{Func: "COUNT", Star: true}, {Func: "SUM", Arg: col(1)}}
}

var benchPred = bin("<", col(2), lit(types.Int(500)))

func batchPipeline(fact, dim []types.Row) BatchOperator {
	f := &BatchFilter{Input: NewBatchRowsSource(factCols, fact), Pred: benchPred}
	j := &BatchHashJoin{Left: f, Right: NewBatchRowsSource(dimCols, dim),
		LeftKeys: []sql.Expr{col(0)}, RightKeys: []sql.Expr{col(0)}}
	return &BatchHashAgg{Input: j, GroupBy: []sql.Expr{col(4)},
		Aggs: benchAggs(), Mode: AggComplete, Names: []string{"name", "cnt", "sum"}}
}

// BenchmarkExecPipeline times the filter→join→agg pipeline.
func BenchmarkExecPipeline(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		fact, dim := benchData(n)
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := CollectBatch(batchPipeline(fact, dim)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestBenchPipelinesAgree pins the benchmark pipeline to the reference
// oracles, so the benchmark measures a correct plan.
func TestBenchPipelinesAgree(t *testing.T) {
	fact, dim := benchData(10_000)
	joined := refJoin(t, refFilter(t, fact, benchPred), dim, []sql.Expr{col(0)}, []sql.Expr{col(0)}, nil, false)
	want := refAgg(t, joined, []sql.Expr{col(4)}, benchAggs())
	got, err := CollectBatch(batchPipeline(fact, dim))
	if err != nil {
		t.Fatal(err)
	}
	assertSameRows(t, "bench-pipeline", got, want)
}
