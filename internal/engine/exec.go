package engine

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/btree"
	"repro/internal/catalog"
	"repro/internal/planner"
	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
	"repro/internal/storage"
)

// Exec parses and executes one SQL string.
func (db *DB) Exec(sql string) (*Result, error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	return db.ExecParsed(sql, stmt)
}

// ExecParsed executes an already-parsed statement, still running the
// observer on the original SQL text. The session layer parses once to
// classify reads vs writes and then routes here.
func (db *DB) ExecParsed(sql string, stmt sqlparser.Statement) (*Result, error) {
	if db.observer != nil {
		db.observer(sql)
	}
	return db.ExecStmt(stmt)
}

// ExecStmt executes a parsed statement, returning rows (for reads) and the
// measured ExecStats. It is panic-safe: internal panics (including injected
// faults surfacing from paths without an error return) are recovered here and
// returned as errors, so one poisoned statement cannot kill the process.
func (db *DB) ExecStmt(stmt sqlparser.Statement) (res *Result, err error) {
	st := &stmtState{}
	db.statsMu.Lock()
	db.statements++
	db.statsMu.Unlock()
	splitsBefore := db.totalSplits()
	// Wall-clock service time is only measured while instrumented: the
	// latency hook the load generator and bench snapshots read, and two
	// clock reads the detached hot path never pays.
	var wallStart time.Time
	if db.metrics != nil {
		wallStart = time.Now()
	}
	// LIFO: recoverToError runs first and settles err, then the metrics
	// defer counts the failure (covering both returned and recovered errors).
	defer func() {
		if err != nil && db.metrics != nil {
			db.metrics.stmtTotal.Inc()
			db.metrics.stmtErrors.Inc()
			db.metrics.stmtSeconds.Observe(time.Since(wallStart).Seconds())
		}
	}()
	defer db.recoverToError("ExecStmt", &res, &err)
	switch s := stmt.(type) {
	case *sqlparser.SelectStmt:
		res, err = db.execSelect(st, s)
	case *sqlparser.InsertStmt:
		res, err = db.execInsert(st, s)
	case *sqlparser.UpdateStmt:
		res, err = db.execUpdate(st, s)
	case *sqlparser.DeleteStmt:
		res, err = db.execDelete(st, s)
	case *sqlparser.CreateTableStmt:
		err = db.CreateTable(s)
		res = &Result{}
	case *sqlparser.CreateIndexStmt:
		err = db.createIndex(st, s.Name, s.Table, s.Columns, s.Unique, s.Local)
		res = &Result{}
	case *sqlparser.DropIndexStmt:
		err = db.DropIndex(s.Name)
		res = &Result{}
	case *sqlparser.ExplainStmt:
		res, err = db.execExplain(s)
	default:
		err = fmt.Errorf("engine: unsupported statement %T", stmt)
	}
	if err != nil {
		return nil, err
	}
	affected := res.Stats.RowsAffected
	res.Stats = db.snapshotStats(st, splitsBefore)
	res.Stats.RowsReturned = int64(len(res.Rows))
	res.Stats.RowsAffected = affected
	if db.metrics != nil {
		db.metrics.recordStmt(res.Stats)
		db.metrics.stmtSeconds.Observe(time.Since(wallStart).Seconds())
	}
	return res, nil
}

// execExplain plans the wrapped statement and returns its plan text as rows
// without executing it.
func (db *DB) execExplain(s *sqlparser.ExplainStmt) (*Result, error) {
	var text string
	switch inner := s.Stmt.(type) {
	case *sqlparser.SelectStmt:
		plan, err := planner.PlanSelect(db.cat, inner)
		if err != nil {
			return nil, err
		}
		text = planner.Explain(plan.Root)
	case *sqlparser.InsertStmt, *sqlparser.UpdateStmt, *sqlparser.DeleteStmt:
		wp, err := planner.PlanWrite(db.cat, inner)
		if err != nil {
			return nil, err
		}
		text = fmt.Sprintf("Write(%s) rows=%.0f scan=%.1f write=%.1f maintain=%d total=%.1f",
			wp.Table, wp.AffectedRows, wp.ScanCost, wp.WriteCost,
			len(wp.MaintainIndexes), wp.TotalCost)
		if wp.Scan != nil {
			text += "\n" + planner.Explain(wp.Scan)
		}
	default:
		return nil, fmt.Errorf("engine: cannot EXPLAIN %T", s.Stmt)
	}
	res := &Result{Columns: []string{"plan"}, Plan: text}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		res.Rows = append(res.Rows, sqltypes.Tuple{sqltypes.NewString(line)})
	}
	return res, nil
}

// execSelect plans and executes a SELECT.
func (db *DB) execSelect(st *stmtState, stmt *sqlparser.SelectStmt) (*Result, error) {
	plan, err := planner.PlanSelect(db.cat, stmt)
	if err != nil {
		return nil, err
	}
	ctx := &evalCtx{db: db, st: st, cols: make(colIndex)}
	rows, err := db.runNode(ctx, plan.Root)
	if err != nil {
		return nil, err
	}
	st.operatorEvals += ctx.ops

	// The root is Project/Agg/Limit/Sort; its output rows carry a synthetic
	// "" binding holding the final projected tuple.
	out := &Result{Plan: planner.Explain(plan.Root)}
	out.Columns = outputColumns(stmt)
	for _, r := range rows {
		out.Rows = append(out.Rows, r.vals[resultBinding])
	}
	return out, nil
}

// resultBinding is the synthetic binding final projected tuples live under.
const resultBinding = "\x00result"

func outputColumns(stmt *sqlparser.SelectStmt) []string {
	var cols []string
	for i, it := range stmt.Select {
		switch {
		case it.Star:
			cols = append(cols, "*")
		case it.Alias != "":
			cols = append(cols, it.Alias)
		default:
			if ref, ok := it.Expr.(*sqlparser.ColumnRef); ok {
				cols = append(cols, ref.Column)
			} else {
				cols = append(cols, fmt.Sprintf("col%d", i+1))
			}
		}
	}
	return cols
}

// runNode executes a plan node, returning its rows.
func (db *DB) runNode(ctx *evalCtx, n planner.Node) ([]row, error) {
	switch v := n.(type) {
	case *planner.SeqScanNode:
		return db.runSeqScan(ctx, v)
	case *planner.IndexScanNode:
		return db.runIndexScan(ctx, v, nil)
	case *planner.MaterializeNode:
		return db.runMaterialize(ctx, v)
	case *planner.JoinNode:
		return db.runJoin(ctx, v)
	case *planner.FilterNode:
		rows, err := db.runNode(ctx, v.Input)
		if err != nil {
			return nil, err
		}
		return db.filterRows(ctx, rows, v.Cond)
	case *planner.AggNode:
		return db.runAgg(ctx, v)
	case *planner.SortNode:
		return db.runSort(ctx, v)
	case *planner.ProjectNode:
		return db.runProject(ctx, v)
	case *planner.LimitNode:
		rows, err := db.runNode(ctx, v.Input)
		if err != nil {
			return nil, err
		}
		if int64(len(rows)) > v.N {
			rows = rows[:v.N]
		}
		return rows, nil
	default:
		return nil, fmt.Errorf("engine: unknown plan node %T", n)
	}
}

func (db *DB) bindTable(ctx *evalCtx, table, binding string) error {
	t := db.cat.Table(table)
	if t == nil {
		return fmt.Errorf("engine: unknown table %q", table)
	}
	ctx.cols.addBinding(binding, t.ColumnNames())
	return nil
}

func (db *DB) runSeqScan(ctx *evalCtx, n *planner.SeqScanNode) ([]row, error) {
	var out []row
	err := db.seqScan(ctx, n, func(_ btree.RID, tup sqltypes.Tuple) {
		r := newRow()
		r.vals[n.Binding] = tup
		out = append(out, r)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// seqScan scans n's heap and calls emit for every tuple that passes
// n.Filter. A compiled filter runs a page batch at a time; a filter that
// does not compile falls back to the interpreter, tuple by tuple. Both
// charge identical IO and ops.
func (db *DB) seqScan(ctx *evalCtx, n *planner.SeqScanNode, emit func(btree.RID, sqltypes.Tuple)) error {
	if err := db.bindTable(ctx, n.Table, n.Binding); err != nil {
		return err
	}
	heap := db.heaps[n.Table]
	var pred *batchPred
	if n.Filter != nil && !db.interpretOnly {
		pred = compileBatchPred(n.Filter, n.Binding, ctx.cols[n.Binding])
	}
	if n.Filter == nil || pred != nil {
		heap.ScanBatch(&ctx.st.io, func(b *storage.Batch) bool {
			ctx.st.tuplesProcessed += int64(b.Len())
			sel := b.Sel
			if pred != nil {
				sel = pred.Select(b.Tuples, b.Sel, &ctx.ops)
			}
			for _, s := range sel {
				emit(b.RID(s), b.Tuples[s])
			}
			return true
		})
		return nil
	}
	var scanErr error
	scratch := newRow()
	heap.Scan(&ctx.st.io, func(rid btree.RID, tup sqltypes.Tuple) bool {
		ctx.st.tuplesProcessed++
		scratch.vals[n.Binding] = tup
		ok, err := ctx.evalExpr(n.Filter, scratch)
		if err != nil {
			scanErr = err
			return false
		}
		if truthy(ok) {
			emit(rid, tup)
		}
		return true
	})
	return scanErr
}

// runIndexScan probes the index. outer, when non-nil, provides the bindings
// referenced by parameterized bounds (index nested-loop joins).
func (db *DB) runIndexScan(ctx *evalCtx, n *planner.IndexScanNode, outer *row) ([]row, error) {
	var out []row
	err := db.indexProbe(ctx, n, outer, func(_ btree.RID, tup sqltypes.Tuple) {
		var r row
		if outer != nil {
			r = outer.clone()
		} else {
			r = newRow()
		}
		r.vals[n.Binding] = tup
		out = append(out, r)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// indexProbe walks n's key windows, fetches each entry's heap tuple and
// calls emit for every live tuple that passes n.Residual. outer is as for
// runIndexScan. A standalone probe's residual is compiled; under an index
// nested-loop join it may reference the outer binding, so the interpreter
// evaluates it.
func (db *DB) indexProbe(ctx *evalCtx, n *planner.IndexScanNode, outer *row, emit func(btree.RID, sqltypes.Tuple)) error {
	if err := db.bindTable(ctx, n.Table, n.Binding); err != nil {
		return err
	}
	trees := db.indexes[n.Index.Name]
	if len(trees) == 0 {
		return fmt.Errorf("engine: index %q has no tree (hypothetical index executed?)", n.Index.Name)
	}
	db.bumpIndexUsage(n.Index.Name)
	if db.metrics != nil {
		db.metrics.indexProbes.With(n.Index.Name).Inc()
	}
	heap := db.heaps[n.Table]

	env := newRow()
	if outer != nil {
		env = *outer
	}
	bounds, eqKey, err := db.buildProbeBounds(ctx, n, env)
	if err != nil {
		return err
	}

	var residual boolPred
	var scratch row
	if n.Residual != nil {
		if outer == nil && !db.interpretOnly {
			residual = compileBool(n.Residual, n.Binding, ctx.cols[n.Binding])
		}
		if residual == nil {
			scratch = env.clone()
		}
	}

	probe := db.probeTrees(n.Index, eqKey, trees)
	var scanErr error
	for _, pb := range bounds {
		for _, tree := range probe {
			ctx.st.indexDescents += int64(tree.Height())
			pages := tree.ScanRange(pb.lo, pb.hi, pb.loInc, pb.hiInc, func(e btree.Entry) bool {
				ctx.st.indexTuplesRW++
				tup := heap.Fetch(e.RID, &ctx.st.io)
				if tup == nil {
					return true // tombstoned heap tuple with stale index entry
				}
				ctx.st.tuplesProcessed++
				switch {
				case residual != nil:
					if !residual(tup, &ctx.ops) {
						return true
					}
				case n.Residual != nil:
					scratch.vals[n.Binding] = tup
					ok, err := ctx.evalExpr(n.Residual, scratch)
					if err != nil {
						scanErr = err
						return false
					}
					if !truthy(ok) {
						return true
					}
				}
				emit(e.RID, tup)
				return true
			})
			ctx.st.io.IndexPagesRead += pages
			if scanErr != nil {
				return scanErr
			}
		}
	}
	return nil
}

// probeBound is one (lo, hi) key window an index scan visits.
type probeBound struct {
	lo, hi       sqltypes.Key
	loInc, hiInc bool
}

// buildProbeBounds evaluates the scan's bound expressions into one or more
// probe windows: a single window for eq-prefix(+range) scans, or one window
// per IN-list value (deduplicated). It also returns the equality prefix for
// partition pruning.
func (db *DB) buildProbeBounds(ctx *evalCtx, n *planner.IndexScanNode, env row) ([]probeBound, sqltypes.Key, error) {
	var eqKey sqltypes.Key
	for _, e := range n.EqVals {
		v, err := ctx.evalExpr(e, env)
		if err != nil {
			return nil, nil, err
		}
		eqKey = append(eqKey, v)
	}

	if len(n.In) > 0 {
		seen := make(map[string]bool, len(n.In))
		bounds := make([]probeBound, 0, len(n.In))
		for _, e := range n.In {
			v, err := ctx.evalExpr(e, env)
			if err != nil {
				return nil, nil, err
			}
			if seen[v.String()] {
				continue
			}
			seen[v.String()] = true
			key := append(append(sqltypes.Key{}, eqKey...), v)
			bounds = append(bounds, probeBound{lo: key, hi: key, loInc: true, hiInc: true})
		}
		return bounds, eqKey, nil
	}

	lo := append(sqltypes.Key{}, eqKey...)
	hi := append(sqltypes.Key{}, eqKey...)
	loInc, hiInc := true, true
	if n.Lo != nil {
		v, err := ctx.evalExpr(n.Lo, env)
		if err != nil {
			return nil, nil, err
		}
		lo = append(lo, v)
		loInc = n.LoInc
	}
	if n.Hi != nil {
		v, err := ctx.evalExpr(n.Hi, env)
		if err != nil {
			return nil, nil, err
		}
		hi = append(hi, v)
		hiInc = n.HiInc
	}
	var loKey, hiKey sqltypes.Key
	if len(lo) > 0 {
		loKey = lo
	}
	if len(hi) > 0 {
		hiKey = hi
	}
	return []probeBound{{lo: loKey, hi: hiKey, loInc: loInc, hiInc: hiInc}}, eqKey, nil
}

// probeTrees selects which trees an index lookup must visit: one for
// normal/global indexes; for a local index, the single partition tree when
// the partition column is bound by an equality in the key prefix, otherwise
// every partition (the local-index penalty the paper's §III remark prices).
func (db *DB) probeTrees(meta *catalog.IndexMeta, eqKey sqltypes.Key, trees []*btree.Tree) []*btree.Tree {
	if !meta.Local || len(trees) == 1 {
		return trees[:1]
	}
	t := db.cat.Table(meta.Table)
	if t == nil || !t.IsPartitioned() {
		return trees[:1]
	}
	for i, col := range meta.Columns {
		if i >= len(eqKey) {
			break
		}
		if col == t.PartitionBy {
			return trees[partitionOf(eqKey[i], t.Partitions) : partitionOf(eqKey[i], t.Partitions)+1]
		}
	}
	return trees
}

func (db *DB) runMaterialize(ctx *evalCtx, n *planner.MaterializeNode) ([]row, error) {
	// Execute the subquery in a child context, then re-expose its projected
	// tuples under this binding.
	res, err := db.execSelect(ctx.st, n.Select)
	if err != nil {
		return nil, err
	}
	ctx.cols.addBinding(n.Binding, n.Columns)
	out := make([]row, 0, len(res.Rows))
	for _, tup := range res.Rows {
		r := newRow()
		r.vals[n.Binding] = tup
		out = append(out, r)
	}
	return out, nil
}

func (db *DB) runJoin(ctx *evalCtx, n *planner.JoinNode) ([]row, error) {
	left, err := db.runNode(ctx, n.Left)
	if err != nil {
		return nil, err
	}
	switch n.Strategy {
	case planner.JoinIndexNL:
		inner, ok := n.Right.(*planner.IndexScanNode)
		if !ok {
			return nil, fmt.Errorf("engine: IndexNL join requires index scan inner")
		}
		var out []row
		for i := range left {
			matches, err := db.runIndexScan(ctx, inner, &left[i])
			if err != nil {
				return nil, err
			}
			for _, m := range matches {
				if n.Cond != nil {
					ok, err := ctx.evalExpr(n.Cond, m)
					if err != nil {
						return nil, err
					}
					if !truthy(ok) {
						continue
					}
				}
				out = append(out, m)
			}
		}
		return out, nil

	case planner.JoinHash:
		right, err := db.runNode(ctx, n.Right)
		if err != nil {
			return nil, err
		}
		table := make(map[string][]int, len(right))
		for i := range right {
			v, err := ctx.evalExpr(n.RightKey, right[i])
			if err != nil {
				return nil, err
			}
			if v.IsNull() {
				continue
			}
			k := v.String()
			table[k] = append(table[k], i)
			ctx.st.tuplesProcessed++
		}
		var out []row
		for li := range left {
			v, err := ctx.evalExpr(n.LeftKey, left[li])
			if err != nil {
				return nil, err
			}
			if v.IsNull() {
				continue
			}
			for _, ri := range table[v.String()] {
				merged := left[li].clone()
				for b, tup := range right[ri].vals {
					merged.vals[b] = tup
				}
				if n.Cond != nil {
					ok, err := ctx.evalExpr(n.Cond, merged)
					if err != nil {
						return nil, err
					}
					if !truthy(ok) {
						continue
					}
				}
				out = append(out, merged)
			}
		}
		return out, nil

	default: // nested loop
		right, err := db.runNode(ctx, n.Right)
		if err != nil {
			return nil, err
		}
		var out []row
		for li := range left {
			for ri := range right {
				merged := left[li].clone()
				for b, tup := range right[ri].vals {
					merged.vals[b] = tup
				}
				if n.Cond != nil {
					ok, err := ctx.evalExpr(n.Cond, merged)
					if err != nil {
						return nil, err
					}
					if !truthy(ok) {
						continue
					}
				}
				out = append(out, merged)
			}
		}
		return out, nil
	}
}

func (db *DB) filterRows(ctx *evalCtx, rows []row, cond sqlparser.Expr) ([]row, error) {
	if cond == nil {
		return rows, nil
	}
	out := rows[:0:0]
	for _, r := range rows {
		ok, err := ctx.evalExpr(cond, r)
		if err != nil {
			return nil, err
		}
		if truthy(ok) {
			out = append(out, r)
		}
	}
	return out, nil
}

// aggState accumulates one aggregate function over a group.
type aggState struct {
	count int64
	sum   float64
	min   sqltypes.Value
	max   sqltypes.Value
	isInt bool
	any   bool
}

func (a *aggState) add(v sqltypes.Value) {
	if v.IsNull() {
		return
	}
	a.count++
	a.sum += v.AsFloat()
	if !a.any {
		a.isInt = v.Kind == sqltypes.KindInt
		a.min, a.max = v, v
		a.any = true
		return
	}
	if v.Kind != sqltypes.KindInt {
		a.isInt = false
	}
	if sqltypes.Compare(v, a.min) < 0 {
		a.min = v
	}
	if sqltypes.Compare(v, a.max) > 0 {
		a.max = v
	}
}

func (a *aggState) result(fn string) sqltypes.Value {
	switch fn {
	case "COUNT":
		return sqltypes.NewInt(a.count)
	case "SUM":
		if !a.any {
			return sqltypes.Null()
		}
		if a.isInt {
			return sqltypes.NewInt(int64(a.sum))
		}
		return sqltypes.NewFloat(a.sum)
	case "AVG":
		if a.count == 0 {
			return sqltypes.Null()
		}
		return sqltypes.NewFloat(a.sum / float64(a.count))
	case "MIN":
		return a.min
	case "MAX":
		return a.max
	default:
		return sqltypes.Null()
	}
}

func (db *DB) runAgg(ctx *evalCtx, n *planner.AggNode) ([]row, error) {
	input, err := db.runNode(ctx, n.Input)
	if err != nil {
		return nil, err
	}

	// Collect aggregate expressions from the select list (and HAVING).
	var aggExprs []*sqlparser.FuncExpr
	collectAggs := func(e sqlparser.Expr) {
		walkExprs(e, func(x sqlparser.Expr) {
			if f, ok := x.(*sqlparser.FuncExpr); ok {
				switch f.Name {
				case "SUM", "COUNT", "AVG", "MIN", "MAX":
					aggExprs = append(aggExprs, f)
				}
			}
		})
	}
	for _, it := range n.Select {
		if !it.Star {
			collectAggs(it.Expr)
		}
	}
	if n.Having != nil {
		collectAggs(n.Having)
	}

	type group struct {
		keyVals []sqltypes.Value
		states  []*aggState
		sample  row
	}
	groups := make(map[string]*group)
	var order []string

	for _, r := range input {
		ctx.st.tuplesProcessed++
		keyVals := make([]sqltypes.Value, len(n.GroupBy))
		var sb strings.Builder
		for i, g := range n.GroupBy {
			v, err := ctx.evalExpr(g, r)
			if err != nil {
				return nil, err
			}
			keyVals[i] = v
			sb.WriteString(v.String())
			sb.WriteByte('|')
		}
		k := sb.String()
		gr, ok := groups[k]
		if !ok {
			gr = &group{keyVals: keyVals, states: make([]*aggState, len(aggExprs)), sample: r}
			for i := range gr.states {
				gr.states[i] = &aggState{}
			}
			groups[k] = gr
			order = append(order, k)
		}
		for i, f := range aggExprs {
			if f.Star {
				gr.states[i].add(sqltypes.NewInt(1))
				continue
			}
			v, err := ctx.evalExpr(f.Args[0], r)
			if err != nil {
				return nil, err
			}
			gr.states[i].add(v)
		}
	}

	// Plain aggregate over empty input still yields one row.
	if len(n.GroupBy) == 0 && len(groups) == 0 {
		gr := &group{states: make([]*aggState, len(aggExprs)), sample: newRow()}
		for i := range gr.states {
			gr.states[i] = &aggState{}
		}
		groups[""] = gr
		order = append(order, "")
	}

	var out []row
	for _, k := range order {
		gr := groups[k]
		// Substitute aggregate results when evaluating projection and HAVING.
		sub := func(e sqlparser.Expr) (sqltypes.Value, error) {
			return db.evalWithAggs(ctx, e, gr.sample, aggExprs, gr.states)
		}
		if n.Having != nil {
			hv, err := sub(n.Having)
			if err != nil {
				return nil, err
			}
			if !truthy(hv) {
				continue
			}
		}
		tup := make(sqltypes.Tuple, 0, len(n.Select))
		for _, it := range n.Select {
			if it.Star {
				// star under aggregation: emit group key values
				tup = append(tup, gr.keyVals...)
				continue
			}
			v, err := sub(it.Expr)
			if err != nil {
				return nil, err
			}
			tup = append(tup, v)
		}
		r := gr.sample.clone()
		r.vals[resultBinding] = tup
		out = append(out, r)
	}
	ctx.cols.addBinding(resultBinding, outputColumns(&sqlparser.SelectStmt{Select: n.Select}))
	return out, nil
}

// evalWithAggs evaluates e over a group sample row, substituting aggregate
// function values from the computed states.
func (db *DB) evalWithAggs(ctx *evalCtx, e sqlparser.Expr, sample row,
	aggs []*sqlparser.FuncExpr, states []*aggState) (sqltypes.Value, error) {
	for i, f := range aggs {
		if e == sqlparser.Expr(f) {
			return states[i].result(f.Name), nil
		}
	}
	switch v := e.(type) {
	case *sqlparser.BinaryExpr:
		l, err := db.evalWithAggs(ctx, v.L, sample, aggs, states)
		if err != nil {
			return sqltypes.Null(), err
		}
		r, err := db.evalWithAggs(ctx, v.R, sample, aggs, states)
		if err != nil {
			return sqltypes.Null(), err
		}
		switch v.Op {
		case sqlparser.OpAdd, sqlparser.OpSub, sqlparser.OpMul, sqlparser.OpDiv:
			return arith(v.Op, l, r), nil
		case sqlparser.OpEQ:
			return boolVal(sqltypes.Equal(l, r)), nil
		case sqlparser.OpNE, sqlparser.OpLT, sqlparser.OpLE, sqlparser.OpGT, sqlparser.OpGE:
			if l.IsNull() || r.IsNull() {
				return boolVal(false), nil
			}
			cmp := sqltypes.Compare(l, r)
			var ok bool
			switch v.Op {
			case sqlparser.OpNE:
				ok = cmp != 0
			case sqlparser.OpLT:
				ok = cmp < 0
			case sqlparser.OpLE:
				ok = cmp <= 0
			case sqlparser.OpGT:
				ok = cmp > 0
			default:
				ok = cmp >= 0
			}
			return boolVal(ok), nil
		case sqlparser.OpAnd:
			return boolVal(truthy(l) && truthy(r)), nil
		case sqlparser.OpOr:
			return boolVal(truthy(l) || truthy(r)), nil
		}
		return sqltypes.Null(), fmt.Errorf("engine: operator %v in aggregate context", v.Op)
	default:
		return ctx.evalExpr(e, sample)
	}
}

func (db *DB) runSort(ctx *evalCtx, n *planner.SortNode) ([]row, error) {
	rows, err := db.runNode(ctx, n.Input)
	if err != nil {
		return nil, err
	}
	if n.Satisfied {
		return rows, nil
	}
	// When sorting above an aggregation, ORDER BY may reference aggregate
	// expressions or select aliases. Those values live positionally in the
	// result tuple; build expression/alias → position lookup.
	resultPos := make(map[string]int)
	if agg, ok := n.Input.(*planner.AggNode); ok {
		pos := 0
		for _, item := range agg.Select {
			if item.Star {
				pos += len(agg.GroupBy)
				continue
			}
			resultPos[item.Expr.String()] = pos
			if item.Alias != "" {
				resultPos[item.Alias] = pos
			}
			pos++
		}
	}
	orderVal := func(o sqlparser.OrderItem, r row) (sqltypes.Value, error) {
		if tup, ok := r.vals[resultBinding]; ok {
			if p, ok := resultPos[o.Expr.String()]; ok && p < len(tup) {
				return tup[p], nil
			}
			if ref, ok := o.Expr.(*sqlparser.ColumnRef); ok && ref.Table == "" {
				if p, ok := resultPos[ref.Column]; ok && p < len(tup) {
					return tup[p], nil
				}
			}
		}
		return ctx.evalExprOrResult(o.Expr, r)
	}
	type keyed struct {
		r    row
		keys []sqltypes.Value
	}
	items := make([]keyed, len(rows))
	for i, r := range rows {
		ks := make([]sqltypes.Value, len(n.OrderBy))
		for j, o := range n.OrderBy {
			v, err := orderVal(o, r)
			if err != nil {
				return nil, err
			}
			ks[j] = v
		}
		items[i] = keyed{r: r, keys: ks}
		ctx.st.operatorEvals++
	}
	sort.SliceStable(items, func(a, b int) bool {
		for j, o := range n.OrderBy {
			c := sqltypes.Compare(items[a].keys[j], items[b].keys[j])
			if c == 0 {
				continue
			}
			if o.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	out := make([]row, len(items))
	for i, it := range items {
		out[i] = it.r
	}
	return out, nil
}

// evalExprOrResult evaluates against base bindings; if the expression fails
// because the value only exists in the projected result (aggregation), fall
// back to positional lookup in the result tuple.
func (c *evalCtx) evalExprOrResult(e sqlparser.Expr, r row) (sqltypes.Value, error) {
	v, err := c.evalExpr(e, r)
	if err == nil {
		return v, nil
	}
	if tup, ok := r.vals[resultBinding]; ok && len(tup) > 0 {
		return tup[0], nil
	}
	return sqltypes.Null(), err
}

func (db *DB) runProject(ctx *evalCtx, n *planner.ProjectNode) ([]row, error) {
	rows, err := db.runNode(ctx, n.Input)
	if err != nil {
		return nil, err
	}
	var out []row
	seen := make(map[string]bool)
	for _, r := range rows {
		var tup sqltypes.Tuple
		for _, it := range n.Select {
			if it.Star {
				// expand all bindings in deterministic order
				var bindings []string
				for b := range r.vals {
					if b == resultBinding {
						continue
					}
					bindings = append(bindings, b)
				}
				sort.Strings(bindings)
				for _, b := range bindings {
					tup = append(tup, r.vals[b]...)
				}
				continue
			}
			v, err := ctx.evalExpr(it.Expr, r)
			if err != nil {
				return nil, err
			}
			tup = append(tup, v)
		}
		if n.Distinct {
			var sb strings.Builder
			for _, v := range tup {
				sb.WriteString(v.String())
				sb.WriteByte('|')
			}
			if seen[sb.String()] {
				continue
			}
			seen[sb.String()] = true
		}
		nr := r.clone()
		nr.vals[resultBinding] = tup
		out = append(out, nr)
	}
	return out, nil
}

// walkExprs visits every node of an expression tree.
func walkExprs(e sqlparser.Expr, visit func(sqlparser.Expr)) {
	if e == nil {
		return
	}
	visit(e)
	switch v := e.(type) {
	case *sqlparser.BinaryExpr:
		walkExprs(v.L, visit)
		walkExprs(v.R, visit)
	case *sqlparser.NotExpr:
		walkExprs(v.E, visit)
	case *sqlparser.InExpr:
		walkExprs(v.E, visit)
		for _, i := range v.List {
			walkExprs(i, visit)
		}
	case *sqlparser.BetweenExpr:
		walkExprs(v.E, visit)
		walkExprs(v.Lo, visit)
		walkExprs(v.Hi, visit)
	case *sqlparser.IsNullExpr:
		walkExprs(v.E, visit)
	case *sqlparser.FuncExpr:
		for _, a := range v.Args {
			walkExprs(a, visit)
		}
	}
}
