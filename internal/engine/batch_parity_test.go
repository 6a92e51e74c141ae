package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/planner"
	"repro/internal/sqlparser"
)

// TestBatchInterpreterParity is the compilation contract: the compiled
// predicate path (page batches for seq scans, per-tuple boolPred for index
// residuals) must be observably indistinguishable from the interpreter —
// identical rows AND identical work accounting (IOCounter, operator evals,
// tuples processed), because those counters are the cost model's training
// signal. Every experiment query shape runs on twin databases, one of which
// never compiles a predicate.
func TestBatchInterpreterParity(t *testing.T) {
	queries := []string{
		// seq scan, no filter
		"SELECT id, a, b, s FROM l",
		// seq scan with the fused comparison shapes (lit on either side)
		"SELECT id FROM l WHERE a = 17",
		"SELECT id FROM l WHERE 17 > a",
		"SELECT id FROM l WHERE s = 't3'",
		"SELECT id FROM l WHERE s LIKE 't%'",
		// AND / OR short-circuit trees
		"SELECT id FROM l WHERE a = 12 AND b < 9",
		"SELECT id FROM l WHERE s = 't1' OR a >= 38",
		"SELECT id FROM l WHERE a > 5 AND b > 2 AND s <> 't0'",
		// IN, BETWEEN, NOT, IS NULL
		"SELECT id FROM l WHERE a IN (3, 14, 41)",
		"SELECT id FROM l WHERE b BETWEEN 4 AND 11",
		"SELECT id FROM l WHERE NOT (a = 2)",
		"SELECT id FROM l WHERE s IS NOT NULL",
		// arithmetic inside the predicate (generic value fallback)
		"SELECT id FROM l WHERE a + b > 40",
		// index scan (point + range through the PK)
		"SELECT a FROM l WHERE id = 77",
		"SELECT id FROM l WHERE id BETWEEN 40 AND 60",
		// join, agg, sort, project, limit
		"SELECT l.id, r.id FROM l JOIN r ON l.a = r.la WHERE r.v > 30",
		"SELECT a, COUNT(*) FROM l WHERE b < 14 GROUP BY a",
		"SELECT id, b FROM l WHERE a >= 11 ORDER BY b, id LIMIT 25",
		"SELECT DISTINCT a FROM l WHERE b = 7",
	}
	writes := []string{
		"INSERT INTO l (id, a, b, s) VALUES (9001, 3, 4, 'w0')",
		"UPDATE l SET b = 99 WHERE a = 21",
		"UPDATE l SET a = a + 1 WHERE id BETWEEN 100 AND 140",
		"DELETE FROM l WHERE a = 5 AND b > 20",
		"DELETE FROM l WHERE id = 9001",
	}
	// Index-scan residuals, run on the indexed twin only: compiled on reads
	// and on UPDATE/DELETE targets (accepting and rejecting the probed
	// tuple), one the interpreter must evaluate (a function call), and one
	// under an index nested-loop join that references the outer binding.
	// On this table size the planner probes an index only for point
	// lookups; each statement is checked to plan with a residual.
	residuals := []struct {
		sql      string
		compiles bool
	}{
		{"SELECT id, b FROM l WHERE id = 3 AND s LIKE 't%'", true},
		{"SELECT id, b FROM l WHERE id = 4 AND s LIKE 'x%'", true},
		{"SELECT id FROM l WHERE a = 3 AND b = 4 AND s LIKE 't%'", true},
		{"UPDATE l SET b = 98 WHERE id = 150 AND s LIKE 't%'", true},
		{"UPDATE l SET b = 97 WHERE id = 151 AND s LIKE 'x%'", true},
		{"DELETE FROM l WHERE id = 311 AND s LIKE 't%'", true},
		{"DELETE FROM l WHERE id = 312 AND s LIKE 'x%'", true},
		{"SELECT id, b FROM l WHERE id = 150 AND b = 98", true},
		{"SELECT id FROM l WHERE id = 33 AND ABS(b - 12) > 5", false},
		{"SELECT r.id, l.id FROM r JOIN l ON l.id = r.la AND l.b < r.v WHERE r.id = 7", false},
	}

	for _, indexed := range []bool{false, true} {
		name := "heap-only"
		if indexed {
			name = "indexed"
		}
		t.Run(name, func(t *testing.T) {
			batch := buildRandomDB(t, 3)
			interp := buildRandomDB(t, 3)
			interp.interpretOnly = true
			if indexed {
				for _, ddl := range []string{
					"CREATE INDEX p_a ON l (a)",
					"CREATE INDEX p_ab ON l (a, b)",
					"CREATE INDEX p_la ON r (la)",
				} {
					mustExec(t, batch, ddl)
					mustExec(t, interp, ddl)
				}
			}
			// Interleave reads and writes so the write-target scan path is
			// exercised between the read shapes, on evolving heap states
			// (tombstones included).
			script := append([]string{}, queries...)
			for i, w := range writes {
				script = append(script, w)
				script = append(script, queries[i%len(queries)])
			}
			if indexed {
				for _, res := range residuals {
					requireResidualScan(t, batch, res.sql, res.compiles)
					script = append(script, res.sql)
				}
			}
			for _, sql := range script {
				rb, err1 := batch.Exec(sql)
				ri, err2 := interp.Exec(sql)
				if (err1 == nil) != (err2 == nil) {
					t.Fatalf("%q: batch err=%v, interpreter err=%v", sql, err1, err2)
				}
				if err1 != nil {
					continue
				}
				if !reflect.DeepEqual(rb.Rows, ri.Rows) {
					t.Fatalf("%q: rows diverge\nbatch:       %v\ninterpreter: %v", sql, rb.Rows, ri.Rows)
				}
				if rb.Stats != ri.Stats {
					t.Fatalf("%q: stats diverge\nbatch:       %+v\ninterpreter: %+v", sql, rb.Stats, ri.Stats)
				}
			}
		})
	}
}

// requireResidualScan fails unless sql's scan of l is an index scan with a
// residual that compiles exactly when compiles is set: a read's (under an
// index nested-loop join, the inner scan's), or an UPDATE/DELETE target's.
func requireResidualScan(t *testing.T, db *DB, sql string, compiles bool) {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	var scan planner.Node
	switch s := stmt.(type) {
	case *sqlparser.UpdateStmt:
		scan, err = db.targetScan(s.Table, s.Where)
	case *sqlparser.DeleteStmt:
		scan, err = db.targetScan(s.Table, s.Where)
	case *sqlparser.SelectStmt:
		var plan *planner.SelectPlan
		if plan, err = planner.PlanSelect(db.cat, s); err == nil {
			scan = findIndexScan(plan.Root, "l")
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	is, ok := scan.(*planner.IndexScanNode)
	if !ok || is.Residual == nil {
		t.Fatalf("%q: want an index scan of l with a residual, got %#v", sql, scan)
	}
	cols := make(colIndex)
	cols.addBinding(is.Binding, db.cat.Table(is.Table).ColumnNames())
	if got := compileBool(is.Residual, is.Binding, cols[is.Binding]) != nil; got != compiles {
		t.Fatalf("%q: residual compiles=%v, want %v", sql, got, compiles)
	}
}

// findIndexScan returns the first index scan of table in n's plan tree, or
// nil.
func findIndexScan(n planner.Node, table string) planner.Node {
	switch v := n.(type) {
	case *planner.IndexScanNode:
		if v.Table == table {
			return v
		}
	case *planner.JoinNode:
		if found := findIndexScan(v.Left, table); found != nil {
			return found
		}
		return findIndexScan(v.Right, table)
	case *planner.FilterNode:
		return findIndexScan(v.Input, table)
	case *planner.ProjectNode:
		return findIndexScan(v.Input, table)
	case *planner.LimitNode:
		return findIndexScan(v.Input, table)
	case *planner.SortNode:
		return findIndexScan(v.Input, table)
	case *planner.AggNode:
		return findIndexScan(v.Input, table)
	}
	return nil
}

// TestBatchInterpreterParityRandomized widens the contract over generated
// predicates: same random query stream, twin databases, stats compared
// statement by statement.
func TestBatchInterpreterParityRandomized(t *testing.T) {
	for trial := int64(0); trial < 4; trial++ {
		rng := rand.New(rand.NewSource(trial*977 + 5))
		batch := buildRandomDB(t, trial)
		interp := buildRandomDB(t, trial)
		interp.interpretOnly = true
		for _, sql := range randomQueries(rng, 60) {
			rb, err1 := batch.Exec(sql)
			ri, err2 := interp.Exec(sql)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("trial %d %q: batch err=%v, interpreter err=%v", trial, sql, err1, err2)
			}
			if err1 != nil {
				continue
			}
			if !reflect.DeepEqual(rb.Rows, ri.Rows) {
				t.Fatalf("trial %d %q: rows diverge", trial, sql)
			}
			if rb.Stats != ri.Stats {
				t.Fatalf("trial %d %q: stats diverge\nbatch:       %+v\ninterpreter: %+v",
					trial, sql, rb.Stats, ri.Stats)
			}
		}
	}
}

// TestBatchPathUsesPoolWithoutChangingLogicalIO pins the two-ledger design:
// disabling the buffer pool entirely must leave every logical counter — and
// therefore ActualCost — untouched.
func TestBatchPathUsesPoolWithoutChangingLogicalIO(t *testing.T) {
	pooled := buildRandomDB(t, 1)
	unpooled, err := NewWithConfig(Config{BufferPoolPages: -1})
	if err != nil {
		t.Fatal(err)
	}
	if unpooled.BufferPool() != nil {
		t.Fatal("negative BufferPoolPages did not disable the pool")
	}
	seedRandomDB(t, unpooled, 1)

	q := "SELECT id FROM l WHERE a = 7 OR b BETWEEN 3 AND 9"
	rp, err := pooled.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	ru, err := unpooled.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Stats != ru.Stats {
		t.Fatalf("pool presence changed logical stats\npooled:   %+v\nunpooled: %+v",
			rp.Stats, ru.Stats)
	}
	s := pooled.BufferPool().Stats()
	if s.Misses == 0 || s.Hits == 0 {
		t.Fatalf("pooled run recorded no physical activity: %+v", s)
	}
	if s.Pinned != 0 {
		t.Fatalf("query leaked %d pinned frames", s.Pinned)
	}
}

// seedRandomDB loads the buildRandomDB dataset into an existing database
// (buildRandomDB always constructs its own instance).
func seedRandomDB(t *testing.T, db *DB, trial int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(trial*31 + 1))
	mustExec(t, db, "CREATE TABLE l (id BIGINT, a BIGINT, b BIGINT, s TEXT, PRIMARY KEY (id))")
	mustExec(t, db, "CREATE TABLE r (id BIGINT, la BIGINT, v DOUBLE, PRIMARY KEY (id))")
	for i := 0; i < 600; i++ {
		mustExec(t, db, fmt.Sprintf(
			"INSERT INTO l (id, a, b, s) VALUES (%d, %d, %d, 't%d')",
			i, rng.Intn(40), rng.Intn(25), rng.Intn(8)))
	}
	for i := 0; i < 400; i++ {
		mustExec(t, db, fmt.Sprintf(
			"INSERT INTO r (id, la, v) VALUES (%d, %d, %d.5)",
			i, rng.Intn(40), rng.Intn(100)))
	}
	if err := db.AnalyzeAll(); err != nil {
		t.Fatal(err)
	}
}
