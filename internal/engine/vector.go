package engine

import (
	"fmt"

	"repro/internal/sqlparser"
	"repro/internal/sqltypes"
	"repro/internal/storage"
)

// The engine's one compiled predicate form. A single-binding WHERE clause
// (or index-scan residual) compiles to a boolPred: column positions are
// resolved once per scan, boolean results stay unboxed, and the dominant
// leaf shapes — <col> cmp <literal>, <col> BETWEEN <lit> AND <lit>,
// <col> IN (<lit>, ...) — collapse into single closures with type-
// specialized comparisons. A batchPred applies a boolPred to a whole
// heap-page batch per Select call and returns a selection vector of
// accepted slots. Predicates that need the evalCtx or another binding
// (subqueries, functions, outer-row references) do not compile; the
// interpreter in eval.go evaluates those and is the oracle the compiled
// form is tested against.
//
// The ops-counting contract is load-bearing: engine_operator_evals_total is
// experiment ground truth, so every compiled node advances ops by exactly
// what the interpreter's evalExpr charges (one increment per node visit,
// same short-circuit order; a fused col/lit comparison is three nodes, so
// +3 per tuple). The batch-vs-interpreter differential test pins this
// bit-identically.

// batchCap is the widest batch Select accepts: one heap page.
const batchCap = storage.TuplesPerPage

// boolPred evaluates a predicate for one tuple, returning its truth value
// and advancing ops exactly as evalExpr would for the same tree.
type boolPred func(tup sqltypes.Tuple, ops *int64) bool

// valPred evaluates a sub-expression to a value, same ops contract.
type valPred func(tup sqltypes.Tuple, ops *int64) sqltypes.Value

// batchPred is a compiled batch predicate plus its selection scratch.
type batchPred struct {
	f   boolPred
	sel []int32
}

// compileBatchPred compiles e for batch evaluation against one binding, or
// returns nil when e needs machinery beyond a single bound tuple:
// subqueries, functions, other bindings or unknown columns.
func compileBatchPred(e sqlparser.Expr, binding string, cols map[string]int) *batchPred {
	f := compileBool(e, binding, cols)
	if f == nil {
		return nil
	}
	return &batchPred{f: f, sel: make([]int32, batchCap)}
}

// Select evaluates the predicate over the tuples sel selects out of tups
// and returns the (ascending) slots it accepts. The result is scratch,
// valid until the next call; sel itself is never written.
func (p *batchPred) Select(tups []sqltypes.Tuple, sel []int32, ops *int64) []int32 {
	if len(sel) > batchCap {
		panic(fmt.Sprintf("engine: batch of %d tuples exceeds batchCap %d", len(sel), batchCap))
	}
	res := p.sel
	k := 0
	f := p.f
	for _, s := range sel {
		if f(tups[s], ops) {
			res[k] = s
			k++
		}
	}
	return res[:k]
}

// compileBool compiles e in boolean context. As in the interpreter, the
// final truthiness test of a value-producing root is free: only tree nodes
// count.
func compileBool(e sqlparser.Expr, binding string, cols map[string]int) boolPred {
	switch v := e.(type) {
	case *sqlparser.BinaryExpr:
		switch v.Op {
		case sqlparser.OpAnd, sqlparser.OpOr:
			l := compileBool(v.L, binding, cols)
			r := compileBool(v.R, binding, cols)
			if l == nil || r == nil {
				return nil
			}
			if v.Op == sqlparser.OpAnd {
				return func(tup sqltypes.Tuple, ops *int64) bool {
					*ops++
					if !l(tup, ops) {
						return false
					}
					return r(tup, ops)
				}
			}
			return func(tup sqltypes.Tuple, ops *int64) bool {
				*ops++
				if l(tup, ops) {
					return true
				}
				return r(tup, ops)
			}
		case sqlparser.OpEQ, sqlparser.OpNE, sqlparser.OpLT, sqlparser.OpLE,
			sqlparser.OpGT, sqlparser.OpGE, sqlparser.OpLike:
			if pos, ok := colRefPos(v.L, binding, cols); ok {
				if c, ok := litValue(v.R); ok {
					return fusedColLit(v.Op, pos, c, false)
				}
			}
			if c, ok := litValue(v.L); ok {
				if pos, ok := colRefPos(v.R, binding, cols); ok {
					return fusedColLit(v.Op, pos, c, true)
				}
			}
			l := compileValue(v.L, binding, cols)
			r := compileValue(v.R, binding, cols)
			if l == nil || r == nil {
				return nil
			}
			op := v.Op
			return func(tup sqltypes.Tuple, ops *int64) bool {
				*ops++
				lv := l(tup, ops)
				rv := r(tup, ops)
				return cmpBool(op, lv, rv)
			}
		case sqlparser.OpAdd, sqlparser.OpSub, sqlparser.OpMul, sqlparser.OpDiv:
			// Arithmetic in boolean position: evaluate as a value and test
			// truthiness, which costs no extra node.
			return boolFromValue(e, binding, cols)
		}
		return nil // unsupported operator: the interpreter keeps its error path
	case *sqlparser.NotExpr:
		sub := compileBool(v.E, binding, cols)
		if sub == nil {
			return nil
		}
		return func(tup sqltypes.Tuple, ops *int64) bool {
			*ops++
			return !sub(tup, ops)
		}
	case *sqlparser.InExpr:
		return compileBoolIn(v, binding, cols)
	case *sqlparser.BetweenExpr:
		return compileBoolBetween(v, binding, cols)
	case *sqlparser.IsNullExpr:
		sub := compileValue(v.E, binding, cols)
		if sub == nil {
			return nil
		}
		not := v.Not
		return func(tup sqltypes.Tuple, ops *int64) bool {
			*ops++
			return sub(tup, ops).IsNull() != not
		}
	default:
		return boolFromValue(e, binding, cols)
	}
}

// boolFromValue adapts a value expression into boolean context (the
// truthiness test is not a tree node, so it adds no ops).
func boolFromValue(e sqlparser.Expr, binding string, cols map[string]int) boolPred {
	f := compileValue(e, binding, cols)
	if f == nil {
		return nil
	}
	return func(tup sqltypes.Tuple, ops *int64) bool {
		return truthy(f(tup, ops))
	}
}

// compileValue compiles e in value context. Literals, placeholders, this
// binding's columns and arithmetic are value leaves; a boolean node in value
// position compiles through compileBool and is boxed with boolVal, which
// costs the same ops as the interpreter's boxed result.
func compileValue(e sqlparser.Expr, binding string, cols map[string]int) valPred {
	switch v := e.(type) {
	case *sqlparser.Literal:
		val := v.Value
		return func(_ sqltypes.Tuple, ops *int64) sqltypes.Value {
			*ops++
			return val
		}
	case *sqlparser.Placeholder:
		return func(_ sqltypes.Tuple, ops *int64) sqltypes.Value {
			*ops++
			return sqltypes.Null()
		}
	case *sqlparser.ColumnRef:
		pos, ok := colRefPos(v, binding, cols)
		if !ok {
			return nil
		}
		return func(tup sqltypes.Tuple, ops *int64) sqltypes.Value {
			*ops++
			if pos >= len(tup) {
				return sqltypes.Null()
			}
			return tup[pos]
		}
	case *sqlparser.BinaryExpr:
		switch v.Op {
		case sqlparser.OpAdd, sqlparser.OpSub, sqlparser.OpMul, sqlparser.OpDiv:
			l := compileValue(v.L, binding, cols)
			r := compileValue(v.R, binding, cols)
			if l == nil || r == nil {
				return nil
			}
			op := v.Op
			return func(tup sqltypes.Tuple, ops *int64) sqltypes.Value {
				*ops++
				lv := l(tup, ops)
				return arith(op, lv, r(tup, ops))
			}
		default:
			return boxBool(compileBool(e, binding, cols))
		}
	case *sqlparser.NotExpr, *sqlparser.InExpr, *sqlparser.BetweenExpr, *sqlparser.IsNullExpr:
		return boxBool(compileBool(e, binding, cols))
	default:
		// FuncExpr and SubqueryExpr need the evalCtx (db access, subquery
		// cache); unknown nodes keep the interpreter's error behavior.
		return nil
	}
}

// boxBool adapts a boolean predicate into value context.
func boxBool(f boolPred) valPred {
	if f == nil {
		return nil
	}
	return func(tup sqltypes.Tuple, ops *int64) sqltypes.Value {
		return boolVal(f(tup, ops))
	}
}

// colRefPos resolves e as a column reference bound to this scan.
func colRefPos(e sqlparser.Expr, binding string, cols map[string]int) (int, bool) {
	ref, ok := e.(*sqlparser.ColumnRef)
	if !ok || ref.Table != binding {
		return 0, false
	}
	pos, ok := cols[ref.Column]
	return pos, ok
}

// litValue unwraps a literal operand.
func litValue(e sqlparser.Expr) (sqltypes.Value, bool) {
	lit, ok := e.(*sqlparser.Literal)
	if !ok {
		return sqltypes.Value{}, false
	}
	return lit.Value, true
}

// cmpBool mirrors the comparison arm of the interpreter's evalBinary
// exactly, minus the boolVal boxing.
func cmpBool(op sqlparser.BinOp, lv, rv sqltypes.Value) bool {
	switch op {
	case sqlparser.OpEQ:
		return sqltypes.Equal(lv, rv)
	case sqlparser.OpLike:
		if lv.IsNull() || rv.IsNull() {
			return false
		}
		return likeMatch(lv.Str, rv.Str)
	default: // OpNE and the orderings
		if lv.IsNull() || rv.IsNull() {
			return false
		}
		cmp := sqltypes.Compare(lv, rv)
		switch op {
		case sqlparser.OpNE:
			return cmp != 0
		case sqlparser.OpLT:
			return cmp < 0
		case sqlparser.OpLE:
			return cmp <= 0
		case sqlparser.OpGT:
			return cmp > 0
		default:
			return cmp >= 0
		}
	}
}

// fusedColLit is the dominant filter shape — <col> cmp <literal> (litLeft
// flips the operands) — as one closure: three nodes per tuple (comparison,
// column, literal), so ops advances by 3, with int- and string-typed
// constants compared without going through sqltypes.Compare.
func fusedColLit(op sqlparser.BinOp, pos int, c sqltypes.Value, litLeft bool) boolPred {
	if c.Kind == sqltypes.KindInt && op != sqlparser.OpLike {
		ci := c.Int
		return func(tup sqltypes.Tuple, ops *int64) bool {
			*ops += 3
			if pos < len(tup) && tup[pos].Kind == sqltypes.KindInt {
				vi := tup[pos].Int
				if litLeft {
					vi, ci := ci, vi // the literal is the left operand
					switch op {
					case sqlparser.OpEQ:
						return vi == ci
					case sqlparser.OpNE:
						return vi != ci
					case sqlparser.OpLT:
						return vi < ci
					case sqlparser.OpLE:
						return vi <= ci
					case sqlparser.OpGT:
						return vi > ci
					default:
						return vi >= ci
					}
				}
				switch op {
				case sqlparser.OpEQ:
					return vi == ci
				case sqlparser.OpNE:
					return vi != ci
				case sqlparser.OpLT:
					return vi < ci
				case sqlparser.OpLE:
					return vi <= ci
				case sqlparser.OpGT:
					return vi > ci
				default:
					return vi >= ci
				}
			}
			return fusedCmpSlow(op, tup, pos, c, litLeft)
		}
	}
	if c.Kind == sqltypes.KindString && op == sqlparser.OpEQ {
		cs := c.Str
		return func(tup sqltypes.Tuple, ops *int64) bool {
			*ops += 3
			if pos < len(tup) && tup[pos].Kind == sqltypes.KindString {
				return tup[pos].Str == cs
			}
			return fusedCmpSlow(op, tup, pos, c, litLeft)
		}
	}
	return func(tup sqltypes.Tuple, ops *int64) bool {
		*ops += 3
		return fusedCmpSlow(op, tup, pos, c, litLeft)
	}
}

// fusedCmpSlow is fusedColLit's mixed-kind fallback: general comparison
// semantics, operands restored to source order.
func fusedCmpSlow(op sqlparser.BinOp, tup sqltypes.Tuple, pos int, c sqltypes.Value, litLeft bool) bool {
	var v sqltypes.Value // Null when out of range, as the column leaf yields
	if pos < len(tup) {
		v = tup[pos]
	}
	if litLeft {
		return cmpBool(op, c, v)
	}
	return cmpBool(op, v, c)
}

func compileBoolIn(v *sqlparser.InExpr, binding string, cols map[string]int) boolPred {
	// Fused shape: <col> IN (<lit>, ...). Two nodes up front (IN + column)
	// and one per list item tried, exactly like the interpreter, which stops
	// at the first match.
	if pos, ok := colRefPos(v.E, binding, cols); ok {
		lits := make([]sqltypes.Value, len(v.List))
		allLits := true
		for i, item := range v.List {
			c, ok := litValue(item)
			if !ok {
				allLits = false
				break
			}
			lits[i] = c
		}
		if allLits {
			return func(tup sqltypes.Tuple, ops *int64) bool {
				*ops += 2
				var val sqltypes.Value
				if pos < len(tup) {
					val = tup[pos]
				}
				if val.IsNull() {
					return false
				}
				for _, c := range lits {
					*ops++
					if val.Kind == sqltypes.KindInt && c.Kind == sqltypes.KindInt {
						if val.Int == c.Int {
							return true
						}
						continue
					}
					if sqltypes.Equal(val, c) {
						return true
					}
				}
				return false
			}
		}
	}
	sub := compileValue(v.E, binding, cols)
	if sub == nil {
		return nil
	}
	items := make([]valPred, len(v.List))
	for i, item := range v.List {
		items[i] = compileValue(item, binding, cols)
		if items[i] == nil {
			return nil
		}
	}
	return func(tup sqltypes.Tuple, ops *int64) bool {
		*ops++
		val := sub(tup, ops)
		if val.IsNull() {
			return false
		}
		for _, item := range items {
			if sqltypes.Equal(val, item(tup, ops)) {
				return true
			}
		}
		return false
	}
}

func compileBoolBetween(v *sqlparser.BetweenExpr, binding string, cols map[string]int) boolPred {
	// Fused range probe: <col> BETWEEN <lit> AND <lit> — four nodes per
	// tuple (between, column, both bounds).
	if pos, ok := colRefPos(v.E, binding, cols); ok {
		loV, okLo := litValue(v.Lo)
		hiV, okHi := litValue(v.Hi)
		if okLo && okHi {
			boundsNull := loV.IsNull() || hiV.IsNull()
			if !boundsNull && loV.Kind == sqltypes.KindInt && hiV.Kind == sqltypes.KindInt {
				lo, hi := loV.Int, hiV.Int
				return func(tup sqltypes.Tuple, ops *int64) bool {
					*ops += 4
					if pos < len(tup) && tup[pos].Kind == sqltypes.KindInt {
						vi := tup[pos].Int
						return vi >= lo && vi <= hi
					}
					return fusedBetweenSlow(tup, pos, loV, hiV)
				}
			}
			return func(tup sqltypes.Tuple, ops *int64) bool {
				*ops += 4
				if boundsNull {
					return false
				}
				return fusedBetweenSlow(tup, pos, loV, hiV)
			}
		}
	}
	sub := compileValue(v.E, binding, cols)
	lo := compileValue(v.Lo, binding, cols)
	hi := compileValue(v.Hi, binding, cols)
	if sub == nil || lo == nil || hi == nil {
		return nil
	}
	return func(tup sqltypes.Tuple, ops *int64) bool {
		*ops++
		val := sub(tup, ops)
		lv := lo(tup, ops)
		hv := hi(tup, ops)
		if val.IsNull() || lv.IsNull() || hv.IsNull() {
			return false
		}
		return sqltypes.Compare(val, lv) >= 0 && sqltypes.Compare(val, hv) <= 0
	}
}

// fusedBetweenSlow handles the mixed-kind (or null column) fallback of the
// fused BETWEEN with non-null bounds.
func fusedBetweenSlow(tup sqltypes.Tuple, pos int, loV, hiV sqltypes.Value) bool {
	var val sqltypes.Value
	if pos < len(tup) {
		val = tup[pos]
	}
	if val.IsNull() {
		return false
	}
	return sqltypes.Compare(val, loV) >= 0 && sqltypes.Compare(val, hiV) <= 0
}
