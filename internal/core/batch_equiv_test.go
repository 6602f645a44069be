package core_test

// TPC-H answer oracle (the batch engine's correctness gate): all 22
// queries run and must match answers recorded in testdata/ from the
// row-at-a-time engine this repository used before batch operators
// became its only engine. Three legs: batch over raw (unencoded) column
// vectors via Config.CompressionOff, the defaults — where the batch
// engine executes directly on dictionary/RLE/bit-packed vectors — both
// with AP queries on read-only replicas, and every plan TP on the RW
// leaders. Queries with ORDER BY compare positionally; the rest compare
// as multisets. Floats get a small epsilon: partial-aggregate merge
// order and the column-index pushdown may fold in a different order
// than the recording did.

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/colindex"
	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/types"
	"repro/internal/workload/tpch"
)

const equivEps = 1e-6

// goldenPath holds the recorded answers; see its header for the format.
const goldenPath = "testdata/tpch_sf005_seed42.golden"

var goldenTPCH = tpch.Config{SF: 0.05, Partitions: 4, Seed: 42}

// equivCluster builds a loaded TPC-H cluster with AP replicas serving
// column indexes on the scan-heavy tables.
func equivCluster(t *testing.T, compressionOff bool) *core.Session {
	t.Helper()
	// The low TP/AP threshold pushes the scan-heavy queries into the AP
	// class at this small scale factor (point lookups cost 10 and stay TP).
	c, err := core.NewCluster(core.Config{
		ROsPerDN: 1, CompressionOff: compressionOff, TPCostThreshold: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	s := c.CN(simnet.DC1).NewSession()
	if err := tpch.Load(s, goldenTPCH); err != nil {
		t.Fatal(err)
	}
	if err := c.EnableAPReplicas(1); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitROConvergence(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	for _, tbl := range []string{"lineitem", "orders"} {
		if err := c.EnableColumnIndexes(tbl); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// tpCluster builds a loaded TPC-H cluster where every plan is TP: all
// reads go through transaction branches on the RW leaders.
func tpCluster(t *testing.T) *core.Session {
	t.Helper()
	c, err := core.NewCluster(core.Config{TPCostThreshold: math.MaxFloat64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	s := c.CN(simnet.DC1).NewSession()
	if err := tpch.Load(s, goldenTPCH); err != nil {
		t.Fatal(err)
	}
	return s
}

// loadGolden parses the recorded answers, keyed by query ID.
func loadGolden(t *testing.T) map[int][]types.Row {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := make(map[int][]types.Row)
	var id, left int
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := sc.Text()
		if strings.HasPrefix(text, "#") {
			continue
		}
		if left == 0 {
			if _, err := fmt.Sscanf(text, "Q%d %d", &id, &left); err != nil {
				t.Fatalf("%s:%d: query header: %v", goldenPath, line, err)
			}
			out[id] = []types.Row{}
			continue
		}
		var row types.Row
		for _, field := range strings.Split(text, "\t") {
			v, err := parseGoldenValue(field)
			if err != nil {
				t.Fatalf("%s:%d: %v", goldenPath, line, err)
			}
			row = append(row, v)
		}
		out[id] = append(out[id], row)
		left--
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if left != 0 {
		t.Fatalf("%s: Q%d truncated, %d rows missing", goldenPath, id, left)
	}
	return out
}

func parseGoldenValue(field string) (types.Value, error) {
	if field == "n" {
		return types.Null(), nil
	}
	kind, text, ok := strings.Cut(field, ":")
	if !ok {
		return types.Value{}, fmt.Errorf("bad value %q", field)
	}
	switch kind {
	case "i":
		v, err := strconv.ParseInt(text, 10, 64)
		return types.Int(v), err
	case "f":
		v, err := strconv.ParseFloat(text, 64)
		return types.Float(v), err
	case "s":
		v, err := strconv.Unquote(text)
		return types.Str(v), err
	case "b":
		return types.Bool(text == "1"), nil
	}
	return types.Value{}, fmt.Errorf("bad value kind %q", field)
}

// canonKey renders a row for multiset comparison, rounding floats so an
// epsilon-sized difference cannot reorder the canonical sort.
func canonKey(r types.Row) string {
	var b strings.Builder
	for _, v := range r {
		if v.K == types.KindFloat {
			fmt.Fprintf(&b, "|%.4f", v.F)
		} else {
			fmt.Fprintf(&b, "|%v", v)
		}
	}
	return b.String()
}

func sameValue(a, b types.Value) bool {
	if a.IsNull() || b.IsNull() {
		return a.IsNull() == b.IsNull()
	}
	if a.K == types.KindFloat || b.K == types.KindFloat {
		diff := a.AsFloat() - b.AsFloat()
		if diff < 0 {
			diff = -diff
		}
		scale := a.AsFloat()
		if scale < 0 {
			scale = -scale
		}
		if scale < 1 {
			scale = 1
		}
		return diff <= equivEps*scale
	}
	return a.Compare(b) == 0
}

func assertEquivalent(t *testing.T, label string, ordered bool, want, got []types.Row) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: got %d rows, want %d", label, len(got), len(want))
	}
	if !ordered {
		want = append([]types.Row(nil), want...)
		got = append([]types.Row(nil), got...)
		sort.Slice(want, func(i, j int) bool { return canonKey(want[i]) < canonKey(want[j]) })
		sort.Slice(got, func(i, j int) bool { return canonKey(got[i]) < canonKey(got[j]) })
	}
	for i := range want {
		if len(want[i]) != len(got[i]) {
			t.Fatalf("%s row %d: width %d, want %d", label, i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if !sameValue(want[i][j], got[i][j]) {
				t.Fatalf("%s row %d col %d: got %v, want %v", label, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestTPCHRowBatchEquivalence runs all 22 queries on the batch engine —
// over raw vectors, directly on encoded vectors, and with every plan TP —
// and asserts each leg matches the answers the row-at-a-time engine
// recorded.
func TestTPCHRowBatchEquivalence(t *testing.T) {
	golden := loadGolden(t)
	legs := []struct {
		name string
		s    *core.Session
	}{
		{"raw", equivCluster(t, true)},
		{"encoded", equivCluster(t, false)},
		{"tp", tpCluster(t)},
	}
	colindex.ResetScanStats()
	sawAP := false
	for _, q := range tpch.Queries() {
		want, ok := golden[q.ID]
		if !ok {
			t.Fatalf("Q%d has no recorded answer in %s", q.ID, goldenPath)
		}
		ordered := strings.Contains(strings.ToUpper(q.SQL), "ORDER BY")
		for _, leg := range legs {
			res, err := leg.s.Execute(q.SQL)
			if err != nil {
				t.Fatalf("Q%d %s: %v", q.ID, leg.name, err)
			}
			if leg.name == "tp" && res.Plan.IsAP {
				t.Fatalf("Q%d: tp leg produced an AP plan", q.ID)
			}
			sawAP = sawAP || res.Plan.IsAP
			assertEquivalent(t, fmt.Sprintf("Q%d (%s) %s", q.ID, q.Name, leg.name), ordered, want, res.Rows)
		}
	}
	if !sawAP {
		t.Fatal("no query ran AP; the replica legs are not exercising the AP sources")
	}
	if st := colindex.ScanStats(); st.EncodedScans == 0 {
		t.Fatal("no column-index scan touched an encoded vector; the encoded leg is not exercising compression")
	}
}

// TestBatchModeSelection checks plan classification on the one engine:
// a full scan is AP, a point read TP, and EXPLAIN names no execution
// mode because every plan runs on batch operators.
func TestBatchModeSelection(t *testing.T) {
	s := equivCluster(t, false)
	res, err := s.Execute("SELECT COUNT(*) FROM lineitem")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Plan.IsAP {
		t.Fatalf("full scan should be AP:\n%s", res.Plan.Explain())
	}
	if strings.Contains(res.Plan.Explain(), "exec=") {
		t.Fatalf("explain still names an execution mode:\n%s", res.Plan.Explain())
	}
	res, err = s.Execute("SELECT o_totalprice FROM orders WHERE o_orderkey = 1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.IsAP || len(res.Rows) != 1 {
		t.Fatalf("point read should be TP with one row, got AP=%v rows=%d", res.Plan.IsAP, len(res.Rows))
	}
}
