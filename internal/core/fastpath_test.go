package core

// Tests for the CN fast path: per-DN batched RPC fan-out (multi-point
// reads, batched DML writes) and the fingerprinted plan cache.

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/simnet"
	"repro/internal/types"
)

// TestBatchedPointReadRPCBudget pins the fast path's RPC budget: a
// multi-point SELECT spanning several DN groups pays exactly one
// MultiGet per touched DN and zero per-key reads.
func TestBatchedPointReadRPCBudget(t *testing.T) {
	const keys = 24
	groups := []string{"dng0", "dng1", "dng2"}
	inList := func() string {
		ids := make([]string, keys)
		for i := range ids {
			ids[i] = fmt.Sprintf("%d", i)
		}
		return strings.Join(ids, ", ")
	}()

	snapshot := func(c *Cluster) (points, multis uint64) {
		for _, g := range groups {
			inst, err := c.DNGroup(g)
			if err != nil {
				t.Fatal(err)
			}
			p, m, _, _ := inst.RPCStats()
			points += p
			multis += m
		}
		return points, multis
	}
	seed := func(c *Cluster) *Session {
		s := c.CN(simnet.DC1).NewSession()
		mustExec(t, s, `CREATE TABLE kv (id BIGINT, v BIGINT, PRIMARY KEY(id)) PARTITIONS 6`)
		var sb strings.Builder
		sb.WriteString("INSERT INTO kv (id, v) VALUES ")
		for i := 0; i < keys; i++ {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %d)", i, i*11)
		}
		mustExec(t, s, sb.String())
		return s
	}
	// The exact set of DNs the statement must touch, from the placement.
	expectDNs := func(c *Cluster) map[string]bool {
		tbl, err := c.GMS.Table("kv")
		if err != nil {
			t.Fatal(err)
		}
		dns := map[string]bool{}
		for i := int64(0); i < keys; i++ {
			shard := tbl.ShardOfPK(types.EncodeKey(nil, types.Int(i)))
			name, err := c.GMS.DNForShard("kv", shard)
			if err != nil {
				t.Fatal(err)
			}
			dns[name] = true
		}
		return dns
	}
	checkRows := func(res *Result) {
		t.Helper()
		if len(res.Rows) != keys {
			t.Fatalf("IN(%d keys) returned %d rows", keys, len(res.Rows))
		}
	}

	t.Run("batched", func(t *testing.T) {
		c := newTestCluster(t, Config{DNGroups: 3})
		s := seed(c)
		want := len(expectDNs(c))
		if want < 2 {
			t.Fatalf("test needs a multi-DN statement, placement uses %d DN(s)", want)
		}

		// Auto-commit statement (ephemeral branch per DN).
		p0, m0 := snapshot(c)
		checkRows(mustExec(t, s, "SELECT v FROM kv WHERE id IN ("+inList+")"))
		p1, m1 := snapshot(c)
		if got := m1 - m0; got != uint64(want) {
			t.Fatalf("auto-commit: %d MultiGet RPCs for %d touched DNs", got, want)
		}
		if p1 != p0 {
			t.Fatalf("auto-commit: fast path fell back to %d per-key reads", p1-p0)
		}

		// Same budget inside an explicit transaction.
		if err := s.BeginTxn(); err != nil {
			t.Fatal(err)
		}
		p0, m0 = snapshot(c)
		checkRows(mustExec(t, s, "SELECT v FROM kv WHERE id IN ("+inList+")"))
		p1, m1 = snapshot(c)
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
		if got := m1 - m0; got != uint64(want) {
			t.Fatalf("in-txn: %d MultiGet RPCs for %d touched DNs", got, want)
		}
		if p1 != p0 {
			t.Fatalf("in-txn: fast path fell back to %d per-key reads", p1-p0)
		}
	})
}

// TestFastPathEquivalenceUnderConcurrency drives many concurrent
// sessions through the batched paths (multi-row INSERT, IN-list
// UPDATE/DELETE/SELECT, GSI maintenance, explicit cross-shard
// transactions) and checks the final database state equals the one the
// statements imply. Run under -race via `make test-race`.
func TestFastPathEquivalenceUnderConcurrency(t *testing.T) {
	const workers, span = 4, 60
	run := func() []string {
		c := newTestCluster(t, Config{})
		s := c.CN(simnet.DC1).NewSession()
		mustExec(t, s, `CREATE TABLE acct (id BIGINT, grp BIGINT, val BIGINT, PRIMARY KEY(id)) PARTITIONS 8`)
		mustExec(t, s, `CREATE GLOBAL INDEX idx_grp ON acct (grp)`)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				sess := c.CN(simnet.DC1).NewSession()
				base := w * span
				// Multi-row inserts (batched write fan-out + GSI rows).
				for lo := 0; lo < span; lo += 20 {
					var sb strings.Builder
					sb.WriteString("INSERT INTO acct (id, grp, val) VALUES ")
					for i := lo; i < lo+20; i++ {
						if i > lo {
							sb.WriteString(", ")
						}
						fmt.Fprintf(&sb, "(%d, %d, %d)", base+i, (base+i)%7, (base+i)*3)
					}
					if _, err := sess.Execute(sb.String()); err != nil {
						t.Error(err)
						return
					}
				}
				// Explicit cross-shard transaction over an IN list: batched
				// point reads + batched updates that move GSI entries.
				var ids []string
				for i := 0; i < span; i += 6 {
					ids = append(ids, fmt.Sprintf("%d", base+i))
				}
				list := strings.Join(ids, ", ")
				if err := sess.BeginTxn(); err != nil {
					t.Error(err)
					return
				}
				if _, err := sess.Execute(
					"SELECT val FROM acct WHERE id IN (" + list + ")"); err != nil {
					t.Error(err)
					return
				}
				if _, err := sess.Execute(
					"UPDATE acct SET val = val + 1000, grp = grp + 7 WHERE id IN (" + list + ")"); err != nil {
					t.Error(err)
					return
				}
				if err := sess.Commit(); err != nil {
					t.Error(err)
					return
				}
				// Auto-commit batched delete.
				if _, err := sess.Execute(fmt.Sprintf(
					"DELETE FROM acct WHERE id IN (%d, %d, %d)", base+1, base+8, base+15)); err != nil {
					t.Error(err)
					return
				}
			}(w)
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		res := mustExec(t, s, "SELECT id, grp, val FROM acct ORDER BY id")
		out := make([]string, 0, len(res.Rows)+1)
		for _, r := range res.Rows {
			out = append(out, fmt.Sprintf("%d|%d|%d", r[0].AsInt(), r[1].AsInt(), r[2].AsInt()))
		}
		// The GSI stayed consistent with the base table (index route).
		gsi := mustExec(t, s, "SELECT COUNT(*) FROM acct WHERE grp = 9")
		out = append(out, fmt.Sprintf("grp9=%d", gsi.Rows[0][0].AsInt()))
		return out
	}
	// Each worker inserts ids [base, base+span) with grp = id%7 and
	// val = id*3, moves every sixth row (+1000 to val, +7 to grp), then
	// deletes base+1, base+8 and base+15.
	var want []string
	grp9 := 0
	for id := 0; id < workers*span; id++ {
		switch id % span {
		case 1, 8, 15:
			continue
		}
		grp, val := id%7, id*3
		if (id%span)%6 == 0 {
			grp, val = grp+7, val+1000
		}
		if grp == 9 {
			grp9++
		}
		want = append(want, fmt.Sprintf("%d|%d|%d", id, grp, val))
	}
	want = append(want, fmt.Sprintf("grp9=%d", grp9))
	got := run()
	if len(got) != len(want) {
		t.Fatalf("got %d result lines, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("line %d: got %s, want %s", i, got[i], want[i])
		}
	}
}

// TestPlanCacheRebindAndHitRate runs the sysbench-style point loop with
// varying literals: one fingerprint, >90% hit rate, and every execution
// must return the row for ITS literal (parameter re-binding plus
// re-pruning of the value-dependent routing).
func TestPlanCacheRebindAndHitRate(t *testing.T) {
	c := newTestCluster(t, Config{})
	cn := c.CN(simnet.DC1)
	s := cn.NewSession()
	seedUsers(t, s, 100)

	h0, m0 := cn.PlanCacheStats()
	for round := 0; round < 2; round++ {
		for i := 0; i < 100; i++ {
			res := mustExec(t, s, fmt.Sprintf("SELECT name FROM users WHERE id = %d", i))
			if len(res.Rows) != 1 || res.Rows[0][0].AsString() != fmt.Sprintf("user%d", i) {
				t.Fatalf("id=%d returned %v (stale parameter binding?)", i, res.Rows)
			}
		}
	}
	hits, misses := cn.PlanCacheStats()
	hits, misses = hits-h0, misses-m0
	if misses != 1 || hits != 199 {
		t.Fatalf("point loop: hits=%d misses=%d, want 199/1", hits, misses)
	}
	if rate := float64(hits) / float64(hits+misses); rate < 0.9 {
		t.Fatalf("hit rate = %.3f, want > 0.9", rate)
	}

	// IN lists share one fingerprint; shard routing must be recomputed
	// per parameter set (different values → different shards), and the
	// IN-dedup semantics must survive re-instantiation.
	res := mustExec(t, s, "SELECT id FROM users WHERE id IN (1, 2, 3) ORDER BY id")
	if len(res.Rows) != 3 || res.Rows[0][0].AsInt() != 1 || res.Rows[2][0].AsInt() != 3 {
		t.Fatalf("IN(1,2,3) = %v", res.Rows)
	}
	h1, _ := cn.PlanCacheStats()
	res = mustExec(t, s, "SELECT id FROM users WHERE id IN (97, 4, 98) ORDER BY id")
	if len(res.Rows) != 3 || res.Rows[0][0].AsInt() != 4 || res.Rows[2][0].AsInt() != 98 {
		t.Fatalf("IN(97,4,98) = %v (cached routing not re-pruned?)", res.Rows)
	}
	res = mustExec(t, s, "SELECT id FROM users WHERE id IN (5, 5, 5) ORDER BY id")
	if len(res.Rows) != 1 || res.Rows[0][0].AsInt() != 5 {
		t.Fatalf("IN(5,5,5) = %v", res.Rows)
	}
	h2, _ := cn.PlanCacheStats()
	if h2-h1 != 2 {
		t.Fatalf("IN variants hit %d times, want 2 (shared fingerprint)", h2-h1)
	}
}

// TestPlanCacheInvalidationOnDDL: any DDL bumps the schema epoch, so a
// cached plan is dropped rather than executed stale — after CREATE
// GLOBAL INDEX the same statement must replan onto the index, and after
// an unrelated CREATE TABLE it must still miss once and re-cache.
func TestPlanCacheInvalidationOnDDL(t *testing.T) {
	c := newTestCluster(t, Config{})
	cn := c.CN(simnet.DC1)
	s := cn.NewSession()
	seedUsers(t, s, 50)

	const q = "SELECT id FROM users WHERE city = 'city2' ORDER BY id"
	first := mustExec(t, s, q)
	if strings.Contains(first.Plan.Explain(), "gsi=") {
		t.Fatalf("gsi plan before any index exists:\n%s", first.Plan.Explain())
	}
	h0, _ := cn.PlanCacheStats()
	second := mustExec(t, s, q)
	if h1, _ := cn.PlanCacheStats(); h1 != h0+1 {
		t.Fatal("repeated statement missed the cache")
	}
	if len(second.Rows) != 10 {
		t.Fatalf("city2 rows = %d", len(second.Rows))
	}

	// The GSI changes the right plan for the cached statement. A stale
	// skeleton would keep broadcasting the scan (or, worse, read physical
	// tables that no longer match the catalog).
	mustExec(t, s, "CREATE GLOBAL INDEX idx_city ON users (city)")
	third := mustExec(t, s, q)
	if !strings.Contains(third.Plan.Explain(), "gsi=idx_city") {
		t.Fatalf("post-DDL execution reused the stale cached plan:\n%s", third.Plan.Explain())
	}
	if len(third.Rows) != len(second.Rows) {
		t.Fatalf("post-DDL rows = %d, want %d", len(third.Rows), len(second.Rows))
	}
	for i := range third.Rows {
		if third.Rows[i][0].AsInt() != second.Rows[i][0].AsInt() {
			t.Fatalf("row %d: %v != %v", i, third.Rows[i], second.Rows[i])
		}
	}

	// Unrelated DDL also moves the epoch (correctness over cleverness):
	// exactly one miss, then the statement caches again.
	_, m0 := cn.PlanCacheStats()
	mustExec(t, s, "CREATE TABLE unrelated (id BIGINT, PRIMARY KEY(id))")
	mustExec(t, s, q)
	h2, m1 := cn.PlanCacheStats()
	if m1 != m0+1 {
		t.Fatalf("CREATE TABLE did not invalidate: misses %d -> %d", m0, m1)
	}
	mustExec(t, s, q)
	if h3, _ := cn.PlanCacheStats(); h3 != h2+1 {
		t.Fatal("statement not re-cached after invalidation")
	}
}

// TestColumnIndexCacheInvalidation covers the per-CN column-index
// answer cache: a CN that already answered "no column index" for a
// table must see EnableColumnIndexes through the epoch bump — both the
// cached answer and any cached plan for the statement are stale.
func TestColumnIndexCacheInvalidation(t *testing.T) {
	c := newTestCluster(t, Config{ROsPerDN: 1, TPCostThreshold: 1})
	if err := c.EnableAPReplicas(1); err != nil {
		t.Fatal(err)
	}
	cn := c.CN(simnet.DC1)
	s := cn.NewSession()
	seedUsers(t, s, 60)

	const q = "SELECT city, COUNT(*) FROM users GROUP BY city ORDER BY city"
	res := mustExec(t, s, q)
	if strings.Contains(res.Plan.Explain(), "store=colindex") {
		t.Fatalf("column index chosen before enabling:\n%s", res.Plan.Explain())
	}
	if err := c.WaitROConvergence(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.EnableColumnIndexes("users"); err != nil {
		t.Fatal(err)
	}
	res = mustExec(t, s, q)
	if !strings.Contains(res.Plan.Explain(), "store=colindex") {
		t.Fatalf("stale cached answer after EnableColumnIndexes:\n%s", res.Plan.Explain())
	}
	if len(res.Rows) != 5 || res.Rows[0][1].AsInt() != 12 {
		t.Fatalf("column-index groups = %v", res.Rows)
	}
}

// TestDMLDuplicateINKeys: duplicate IN-list entries must match a row
// once for UPDATE/DELETE (MySQL semantics) — without dedup the second
// staged delete of the same key fails at the DN.
func TestDMLDuplicateINKeys(t *testing.T) {
	t.Run("batched", func(t *testing.T) {
		c := newTestCluster(t, Config{})
		s := c.CN(simnet.DC1).NewSession()
		mustExec(t, s, `CREATE TABLE dup (id BIGINT, v BIGINT, PRIMARY KEY (id)) PARTITIONS 4`)
		mustExec(t, s, `CREATE GLOBAL INDEX idx_dupv ON dup (v)`)
		mustExec(t, s, `INSERT INTO dup (id, v) VALUES (1, 10), (2, 20), (3, 30)`)

		if res := mustExec(t, s, `UPDATE dup SET v = v + 1 WHERE id IN (2, 2, 2)`); res.Affected != 1 {
			t.Fatalf("update affected = %d, want 1", res.Affected)
		}
		if res := mustExec(t, s, `SELECT v FROM dup WHERE id = 2`); res.Rows[0][0].AsInt() != 21 {
			t.Fatalf("duplicate-key update applied more than once: v = %v", res.Rows[0][0])
		}

		if res := mustExec(t, s, `DELETE FROM dup WHERE id IN (3, 3, 3)`); res.Affected != 1 {
			t.Fatalf("delete affected = %d, want 1", res.Affected)
		}
		if res := mustExec(t, s, `SELECT id FROM dup ORDER BY id`); len(res.Rows) != 2 {
			t.Fatalf("rows after delete = %d, want 2", len(res.Rows))
		}
		// The GSI must have followed: old entries gone, updated one present.
		if res := mustExec(t, s, `SELECT id FROM dup WHERE v = 21`); len(res.Rows) != 1 || res.Rows[0][0].AsInt() != 2 {
			t.Fatalf("GSI lookup after dup-key update = %v", res.Rows)
		}
		if res := mustExec(t, s, `SELECT id FROM dup WHERE v = 30`); len(res.Rows) != 0 {
			t.Fatalf("GSI entry for deleted row survived: %v", res.Rows)
		}
	})
}
