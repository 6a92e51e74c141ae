package engine

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/btree"
	"repro/internal/planner"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
)

// filterDB builds a table with int, float, string, and NULL-bearing rows so
// every predicate shape and null path gets exercised.
func filterDB(t *testing.T) *DB {
	t.Helper()
	db := New()
	if _, err := db.Exec("CREATE TABLE ft (a BIGINT, b BIGINT, f DOUBLE, s VARCHAR, PRIMARY KEY (a))"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		sql := fmt.Sprintf("INSERT INTO ft (a, b, f, s) VALUES (%d, %d, %d.5, 'row%d')", i, i%7, i%11, i%5)
		if _, err := db.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	// Rows with NULL b, f, s.
	for i := 50; i < 60; i++ {
		if _, err := db.Exec(fmt.Sprintf("INSERT INTO ft (a) VALUES (%d)", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.AnalyzeAll(); err != nil {
		t.Fatal(err)
	}
	return db
}

// seqScanFilter plans the query and digs out the scan's filter plus binding.
func seqScanFilter(t *testing.T, db *DB, sql string) (sqlparser.Expr, string) {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := planner.PlanSelect(db.cat, stmt.(*sqlparser.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	var node planner.Node = plan.Root
	for {
		switch v := node.(type) {
		case *planner.ProjectNode:
			node = v.Input
			continue
		case *planner.LimitNode:
			node = v.Input
			continue
		case *planner.FilterNode:
			node = v.Input
			continue
		}
		break
	}
	scan, ok := node.(*planner.SeqScanNode)
	if !ok {
		t.Fatalf("%s: expected SeqScanNode, got %T", sql, node)
	}
	if scan.Filter == nil {
		t.Fatalf("%s: scan has no filter", sql)
	}
	return scan.Filter, scan.Binding
}

// TestCompiledFilterMatchesInterpreter is the equivalence contract of the
// compiled predicate: for every predicate shape, truthiness AND ops
// accounting are identical to the tree-walking interpreter on every tuple.
func TestCompiledFilterMatchesInterpreter(t *testing.T) {
	db := filterDB(t)
	preds := []string{
		"a = 7",
		"a != 7",
		"b < 3",
		"b <= 3",
		"b > 3",
		"b >= 3",
		"f = 2.5",
		"s = 'row1'",
		"s LIKE 'row%'",
		"s LIKE '_ow3'",
		"a = 1 AND b = 1",
		"b = 99 AND a = 1",
		"a = 3 OR b = 5",
		"b = 5 OR a = 3",
		"NOT a = 3",
		"a IN (1, 5, 9)",
		"b IN (1, 2)",
		"a BETWEEN 10 AND 20",
		"f BETWEEN 1.0 AND 3.0",
		"b IS NULL",
		"b IS NOT NULL",
		"s IS NULL",
		"a + b = 10",
		"a - b > 20",
		"a * 2 = 40",
		"a / 7 > 3.0",
		"b / 0 = 1",
		"a = 1 AND (b = 1 OR f > 2.0) AND s IS NOT NULL",
		"b + 1 = 2 AND NOT s LIKE 'row9%'",
	}
	for _, pred := range preds {
		filter, binding := seqScanFilter(t, db, "SELECT * FROM ft WHERE "+pred)
		cols := ftCols(t, db, binding)
		f := compileBool(filter, binding, cols[binding])
		if f == nil {
			t.Errorf("%s: predicate did not compile", pred)
			continue
		}
		t.Run(pred, func(t *testing.T) {
			checkOnAllTuples(t, db, filter, binding, cols, false, boxBool(f))
		})
	}
}

// TestCompiledValueMatchesInterpreter covers the value compiler's leaves —
// literals, columns, arithmetic, and a boolean node in value position — in
// both contexts: compileValue must reproduce the interpreter's exact value
// (float bits included) and compileBool its truthiness, each with the same
// ops count.
func TestCompiledValueMatchesInterpreter(t *testing.T) {
	db := filterDB(t)
	for _, expr := range []string{
		"a + b",
		"a - b * 2",
		"f * 2.0 - a",
		"a / 7",
		"b / 0",
		"b - b",
		"(a = 3) + b",
		"(b IN (1, 2)) * (f BETWEEN 1.0 AND 3.0)",
	} {
		e, binding := seqScanFilter(t, db, "SELECT * FROM ft WHERE "+expr)
		cols := ftCols(t, db, binding)
		v := compileValue(e, binding, cols[binding])
		f := compileBool(e, binding, cols[binding])
		if v == nil || f == nil {
			t.Errorf("%s: did not compile (value %v, bool %v)", expr, v != nil, f != nil)
			continue
		}
		t.Run(expr, func(t *testing.T) {
			checkOnAllTuples(t, db, e, binding, cols, true, v)
			checkOnAllTuples(t, db, e, binding, cols, false, boxBool(f))
		})
	}
}

// ftCols binds ft under binding, as a scan would.
func ftCols(t *testing.T, db *DB, binding string) colIndex {
	t.Helper()
	ctx := &evalCtx{db: db, cols: make(colIndex)}
	if err := db.bindTable(ctx, "ft", binding); err != nil {
		t.Fatal(err)
	}
	return ctx.cols
}

// checkOnAllTuples runs compiled and the interpreter over every tuple of ft
// and requires the same ops count and the same truthiness or, when exact,
// the same value.
func checkOnAllTuples(t *testing.T, db *DB, e sqlparser.Expr, binding string, cols colIndex, exact bool, compiled valPred) {
	t.Helper()
	checked := 0
	db.heaps["ft"].Scan(nil, func(_ btree.RID, tup sqltypes.Tuple) bool {
		r := newRow()
		r.vals[binding] = tup
		interp := &evalCtx{db: db, cols: cols}
		iv, err := interp.evalExpr(e, r)
		if err != nil {
			t.Fatalf("tuple %v: interpreter error on a compilable expression: %v", tup, err)
		}
		var ops int64
		cv := compiled(tup, &ops)
		switch {
		case !exact:
			if truthy(iv) != truthy(cv) {
				t.Fatalf("tuple %v: interp=%v compiled=%v", tup, iv, cv)
			}
		case iv.Kind == sqltypes.KindFloat && cv.Kind == sqltypes.KindFloat:
			if math.Float64bits(iv.Float) != math.Float64bits(cv.Float) {
				t.Fatalf("tuple %v: float bits differ: %v vs %v", tup, iv.Float, cv.Float)
			}
		case iv != cv:
			t.Fatalf("tuple %v: value differs: %#v vs %#v", tup, iv, cv)
		}
		if interp.ops != ops {
			t.Fatalf("tuple %v: ops accounting differs: interp=%d compiled=%d", tup, interp.ops, ops)
		}
		checked++
		return true
	})
	if checked == 0 {
		t.Fatal("no tuples checked")
	}
}

// TestCompileExprRejectsUncompilable: constructs needing the evalCtx must
// fall back to the interpreter (nil compile), never miscompile.
func TestCompileExprRejectsUncompilable(t *testing.T) {
	db := filterDB(t)
	cols := ftCols(t, db, "ft")["ft"]
	for _, sql := range []string{
		"SELECT * FROM ft WHERE ABS(b) = 1",
		"SELECT * FROM ft WHERE a = (SELECT MAX(a) FROM ft)",
		"SELECT * FROM ft WHERE a IN (SELECT b FROM ft)",
	} {
		stmt, err := sqlparser.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		where := stmt.(*sqlparser.SelectStmt).Where
		// Qualify bare refs like the planner would.
		qualify(where, "ft")
		if compileBatchPred(where, "ft", cols) != nil {
			t.Errorf("%s: must not compile (needs evalCtx)", sql)
		}
	}
	// Foreign-binding references must not compile either.
	foreign := &sqlparser.BinaryExpr{Op: sqlparser.OpEQ,
		L: &sqlparser.ColumnRef{Table: "other", Column: "a"},
		R: &sqlparser.Literal{Value: sqltypes.NewInt(1)}}
	if compileBatchPred(foreign, "ft", cols) != nil {
		t.Error("foreign-binding ref must not compile")
	}
	// Unknown column must not compile (interpreter owns the error).
	unknown := &sqlparser.ColumnRef{Table: "ft", Column: "nope"}
	if compileBatchPred(unknown, "ft", cols) != nil {
		t.Error("unknown column must not compile")
	}
}

// qualify sets the binding on bare column refs (test helper).
func qualify(e sqlparser.Expr, binding string) {
	switch v := e.(type) {
	case *sqlparser.ColumnRef:
		if v.Table == "" {
			v.Table = binding
		}
	case *sqlparser.BinaryExpr:
		qualify(v.L, binding)
		qualify(v.R, binding)
	case *sqlparser.NotExpr:
		qualify(v.E, binding)
	case *sqlparser.InExpr:
		qualify(v.E, binding)
		for _, item := range v.List {
			qualify(item, binding)
		}
	case *sqlparser.BetweenExpr:
		qualify(v.E, binding)
		qualify(v.Lo, binding)
		qualify(v.Hi, binding)
	case *sqlparser.IsNullExpr:
		qualify(v.E, binding)
	case *sqlparser.FuncExpr:
		for _, a := range v.Args {
			qualify(a, binding)
		}
	}
}
