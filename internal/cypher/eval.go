package cypher

import (
	"context"
	"fmt"
	"math"
	"regexp"
	"strings"

	"chatiyp/internal/graph"
)

// Row is one binding table row: variable name → value.
type Row map[string]graph.Value

func (r Row) clone() Row {
	out := make(Row, len(r)+2)
	for k, v := range r {
		out[k] = v
	}
	return out
}

// evalCtx carries everything expression evaluation needs: the graph (for
// pattern predicates), the parameters, and executor options.
type evalCtx struct {
	g *graph.Graph
	// r is the read path of this execution. A read-only query pins one
	// immutable graph.View — every hop, label scan, and index lookup of
	// the whole execution then reads one consistent epoch, lock-free. A
	// write query sets r = g so reads observe the query's own writes
	// through the locked live graph.
	r      graph.Reader
	params map[string]graph.Value
	opts   Options
	// plan carries the prepared query's planning state (per-MATCH index
	// hints); nil for ad-hoc execution, which plans each MATCH on the
	// fly.
	plan *queryPlan
	// ctx is the execution's cancellation context (nil means
	// uncancelable); cancelSteps counts executor steps toward the next
	// periodic poll (see checkCancel in context.go).
	ctx         context.Context
	cancelSteps int
}

// EvalError is a runtime evaluation error (type mismatch, unknown
// function, bad parameter).
type EvalError struct{ Msg string }

func (e *EvalError) Error() string { return "cypher: " + e.Msg }

func evalErrorf(format string, args ...any) error {
	return &EvalError{Msg: fmt.Sprintf(format, args...)}
}

// eval evaluates an expression against a row. A nil result is Cypher
// null.
func (c *evalCtx) eval(e Expr, row Row) (graph.Value, error) {
	switch x := e.(type) {
	case *boxedValue:
		return x.v, nil
	case *Literal:
		return graph.NormalizeValue(x.Value)
	case *Variable:
		v, ok := row[x.Name]
		if !ok {
			return nil, evalErrorf("variable `%s` not defined", x.Name)
		}
		return v, nil
	case *Parameter:
		v, ok := c.params[x.Name]
		if !ok {
			return nil, evalErrorf("parameter $%s not supplied", x.Name)
		}
		return v, nil
	case *PropertyAccess:
		subj, err := c.eval(x.Subject, row)
		if err != nil {
			return nil, err
		}
		switch s := subj.(type) {
		case nil:
			return nil, nil
		case *graph.Node:
			return s.Prop(x.Prop), nil
		case *graph.Relationship:
			return s.Prop(x.Prop), nil
		case map[string]graph.Value:
			return s[x.Prop], nil
		default:
			return nil, evalErrorf("type %T has no properties", subj)
		}
	case *ListLiteral:
		out := make([]graph.Value, len(x.Elems))
		for i, el := range x.Elems {
			v, err := c.eval(el, row)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	case *MapLiteral:
		out := make(map[string]graph.Value, len(x.Keys))
		for i, k := range x.Keys {
			v, err := c.eval(x.Elems[i], row)
			if err != nil {
				return nil, err
			}
			out[k] = v
		}
		return out, nil
	case *IndexExpr:
		return c.evalIndex(x, row)
	case *Unary:
		return c.evalUnary(x, row)
	case *Binary:
		return c.evalBinary(x, row)
	case *IsNull:
		v, err := c.eval(x.Expr, row)
		if err != nil {
			return nil, err
		}
		isNull := graph.KindOf(v) == graph.KindNull
		if x.Negate {
			return !isNull, nil
		}
		return isNull, nil
	case *FuncCall:
		if isAggregateFunc(x.Name) {
			return nil, evalErrorf("aggregate function %s() used outside a projection", x.Name)
		}
		return c.evalFunc(x, row)
	case *CaseExpr:
		return c.evalCase(x, row)
	case *ListComprehension:
		return c.evalListComprehension(x, row)
	case *QuantifiedExpr:
		return c.evalQuantified(x, row)
	case *ExistsExpr:
		if x.Pattern != nil {
			return c.patternExists(x.Pattern, row)
		}
		v, err := c.eval(x.Prop, row)
		if err != nil {
			return nil, err
		}
		return graph.KindOf(v) != graph.KindNull, nil
	case *PatternExpr:
		return c.patternExists(x.Pattern, row)
	}
	return nil, evalErrorf("unsupported expression %T", e)
}

func (c *evalCtx) evalIndex(x *IndexExpr, row Row) (graph.Value, error) {
	subj, err := c.eval(x.Subject, row)
	if err != nil {
		return nil, err
	}
	if graph.KindOf(subj) == graph.KindNull {
		return nil, nil
	}
	if x.IsSlice {
		list, ok := subj.([]graph.Value)
		if !ok {
			return nil, evalErrorf("slice of non-list %T", subj)
		}
		from, to := 0, len(list)
		if x.Index != nil {
			v, err := c.eval(x.Index, row)
			if err != nil {
				return nil, err
			}
			i, ok := graph.AsInt(v)
			if !ok {
				return nil, evalErrorf("non-integer slice bound")
			}
			from = normIndex(int(i), len(list))
		}
		if x.To != nil {
			v, err := c.eval(x.To, row)
			if err != nil {
				return nil, err
			}
			i, ok := graph.AsInt(v)
			if !ok {
				return nil, evalErrorf("non-integer slice bound")
			}
			to = normIndex(int(i), len(list))
		}
		if from > to {
			from = to
		}
		return append([]graph.Value(nil), list[from:to]...), nil
	}
	idxV, err := c.eval(x.Index, row)
	if err != nil {
		return nil, err
	}
	switch s := subj.(type) {
	case []graph.Value:
		i, ok := graph.AsInt(idxV)
		if !ok {
			return nil, evalErrorf("non-integer list index %v", idxV)
		}
		n := int(i)
		if n < 0 {
			n += len(s)
		}
		if n < 0 || n >= len(s) {
			return nil, nil
		}
		return s[n], nil
	case map[string]graph.Value:
		key, ok := idxV.(string)
		if !ok {
			return nil, evalErrorf("non-string map key %v", idxV)
		}
		return s[key], nil
	case *graph.Node:
		key, ok := idxV.(string)
		if !ok {
			return nil, evalErrorf("non-string property key %v", idxV)
		}
		return s.Prop(key), nil
	default:
		return nil, evalErrorf("cannot index %T", subj)
	}
}

func normIndex(i, n int) int {
	if i < 0 {
		i += n
	}
	if i < 0 {
		i = 0
	}
	if i > n {
		i = n
	}
	return i
}

func (c *evalCtx) evalUnary(x *Unary, row Row) (graph.Value, error) {
	v, err := c.eval(x.Expr, row)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case "NOT":
		switch b := v.(type) {
		case nil:
			return nil, nil
		case bool:
			return !b, nil
		default:
			return nil, evalErrorf("NOT applied to non-boolean %T", v)
		}
	case "-":
		switch n := v.(type) {
		case nil:
			return nil, nil
		case int64:
			return -n, nil
		case float64:
			return -n, nil
		default:
			return nil, evalErrorf("unary minus on non-number %T", v)
		}
	}
	return nil, evalErrorf("unknown unary operator %s", x.Op)
}

func (c *evalCtx) evalBinary(x *Binary, row Row) (graph.Value, error) {
	// Boolean connectives need lazy three-valued logic.
	switch x.Op {
	case "AND", "OR", "XOR":
		return c.evalLogical(x, row)
	}
	lv, err := c.eval(x.Left, row)
	if err != nil {
		return nil, err
	}
	rv, err := c.eval(x.Right, row)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case "+":
		return addValues(lv, rv)
	case "-", "*", "/", "%", "^":
		return arithValues(x.Op, lv, rv)
	case "=", "<>":
		if graph.KindOf(lv) == graph.KindNull || graph.KindOf(rv) == graph.KindNull {
			return nil, nil
		}
		eq := graph.ValuesEqual(lv, rv)
		if x.Op == "<>" {
			return !eq, nil
		}
		return eq, nil
	case "<", "<=", ">", ">=":
		cmp, ok := graph.CompareValues(lv, rv)
		if !ok {
			return nil, nil
		}
		switch x.Op {
		case "<":
			return cmp < 0, nil
		case "<=":
			return cmp <= 0, nil
		case ">":
			return cmp > 0, nil
		default:
			return cmp >= 0, nil
		}
	case "IN":
		if graph.KindOf(rv) == graph.KindNull {
			return nil, nil
		}
		list, ok := rv.([]graph.Value)
		if !ok {
			return nil, evalErrorf("IN requires a list, got %T", rv)
		}
		if graph.KindOf(lv) == graph.KindNull {
			return nil, nil
		}
		sawNull := false
		for _, el := range list {
			if graph.KindOf(el) == graph.KindNull {
				sawNull = true
				continue
			}
			if graph.ValuesEqual(lv, el) {
				return true, nil
			}
		}
		if sawNull {
			return nil, nil
		}
		return false, nil
	case "STARTSWITH", "ENDSWITH", "CONTAINS":
		ls, lok := lv.(string)
		rs, rok := rv.(string)
		if graph.KindOf(lv) == graph.KindNull || graph.KindOf(rv) == graph.KindNull {
			return nil, nil
		}
		if !lok || !rok {
			return nil, evalErrorf("%s requires strings", x.Op)
		}
		switch x.Op {
		case "STARTSWITH":
			return strings.HasPrefix(ls, rs), nil
		case "ENDSWITH":
			return strings.HasSuffix(ls, rs), nil
		default:
			return strings.Contains(ls, rs), nil
		}
	case "=~":
		if graph.KindOf(lv) == graph.KindNull || graph.KindOf(rv) == graph.KindNull {
			return nil, nil
		}
		ls, lok := lv.(string)
		rs, rok := rv.(string)
		if !lok || !rok {
			return nil, evalErrorf("=~ requires strings")
		}
		re, err := regexp.Compile("^(?:" + rs + ")$")
		if err != nil {
			return nil, evalErrorf("bad regex %q: %v", rs, err)
		}
		return re.MatchString(ls), nil
	}
	return nil, evalErrorf("unknown operator %s", x.Op)
}

func (c *evalCtx) evalLogical(x *Binary, row Row) (graph.Value, error) {
	lv, err := c.eval(x.Left, row)
	if err != nil {
		return nil, err
	}
	lb, lNull, err := toTriBool(lv)
	if err != nil {
		return nil, err
	}
	// Short circuits that are valid under three-valued logic.
	if x.Op == "AND" && !lNull && !lb {
		return false, nil
	}
	if x.Op == "OR" && !lNull && lb {
		return true, nil
	}
	rv, err := c.eval(x.Right, row)
	if err != nil {
		return nil, err
	}
	rb, rNull, err := toTriBool(rv)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case "AND":
		if (!lNull && !lb) || (!rNull && !rb) {
			return false, nil
		}
		if lNull || rNull {
			return nil, nil
		}
		return true, nil
	case "OR":
		if (!lNull && lb) || (!rNull && rb) {
			return true, nil
		}
		if lNull || rNull {
			return nil, nil
		}
		return false, nil
	case "XOR":
		if lNull || rNull {
			return nil, nil
		}
		return lb != rb, nil
	}
	return nil, evalErrorf("unknown logical operator %s", x.Op)
}

func toTriBool(v graph.Value) (val bool, isNull bool, err error) {
	switch b := v.(type) {
	case nil:
		return false, true, nil
	case bool:
		return b, false, nil
	default:
		return false, false, evalErrorf("expected boolean, got %T", v)
	}
}

func addValues(a, b graph.Value) (graph.Value, error) {
	if graph.KindOf(a) == graph.KindNull || graph.KindOf(b) == graph.KindNull {
		return nil, nil
	}
	// String concatenation (string + anything stringable on either side).
	if as, ok := a.(string); ok {
		if bs, ok := b.(string); ok {
			return as + bs, nil
		}
		if graph.KindOf(b) == graph.KindNumber {
			return as + graph.FormatValue(b), nil
		}
	}
	if bs, ok := b.(string); ok && graph.KindOf(a) == graph.KindNumber {
		return graph.FormatValue(a) + bs, nil
	}
	// List concatenation / append.
	if la, ok := a.([]graph.Value); ok {
		if lb, ok := b.([]graph.Value); ok {
			out := make([]graph.Value, 0, len(la)+len(lb))
			out = append(out, la...)
			return append(out, lb...), nil
		}
		out := make([]graph.Value, 0, len(la)+1)
		out = append(out, la...)
		return append(out, b), nil
	}
	if lb, ok := b.([]graph.Value); ok {
		out := make([]graph.Value, 0, len(lb)+1)
		out = append(out, a)
		return append(out, lb...), nil
	}
	return arithValues("+", a, b)
}

func arithValues(op string, a, b graph.Value) (graph.Value, error) {
	if graph.KindOf(a) == graph.KindNull || graph.KindOf(b) == graph.KindNull {
		return nil, nil
	}
	ai, aIsInt := a.(int64)
	bi, bIsInt := b.(int64)
	if aIsInt && bIsInt && op != "/" && op != "^" {
		switch op {
		case "+":
			return ai + bi, nil
		case "-":
			return ai - bi, nil
		case "*":
			return ai * bi, nil
		case "%":
			if bi == 0 {
				return nil, evalErrorf("modulo by zero")
			}
			return ai % bi, nil
		}
	}
	if aIsInt && bIsInt && op == "/" {
		if bi == 0 {
			return nil, evalErrorf("division by zero")
		}
		return ai / bi, nil
	}
	af, aok := graph.AsFloat(a)
	bf, bok := graph.AsFloat(b)
	if !aok || !bok {
		return nil, evalErrorf("arithmetic %s on non-numbers %T, %T", op, a, b)
	}
	switch op {
	case "+":
		return af + bf, nil
	case "-":
		return af - bf, nil
	case "*":
		return af * bf, nil
	case "/":
		if bf == 0 {
			return nil, evalErrorf("division by zero")
		}
		return af / bf, nil
	case "%":
		return math.Mod(af, bf), nil
	case "^":
		return math.Pow(af, bf), nil
	}
	return nil, evalErrorf("unknown arithmetic operator %s", op)
}

func (c *evalCtx) evalCase(x *CaseExpr, row Row) (graph.Value, error) {
	if x.Subject != nil {
		subj, err := c.eval(x.Subject, row)
		if err != nil {
			return nil, err
		}
		for i := range x.Whens {
			w, err := c.eval(x.Whens[i], row)
			if err != nil {
				return nil, err
			}
			if graph.KindOf(subj) != graph.KindNull && graph.ValuesEqual(subj, w) {
				return c.eval(x.Thens[i], row)
			}
		}
	} else {
		for i := range x.Whens {
			w, err := c.eval(x.Whens[i], row)
			if err != nil {
				return nil, err
			}
			if b, ok := w.(bool); ok && b {
				return c.eval(x.Thens[i], row)
			}
		}
	}
	if x.Else != nil {
		return c.eval(x.Else, row)
	}
	return nil, nil
}

func (c *evalCtx) evalListComprehension(x *ListComprehension, row Row) (graph.Value, error) {
	lv, err := c.eval(x.List, row)
	if err != nil {
		return nil, err
	}
	if graph.KindOf(lv) == graph.KindNull {
		return nil, nil
	}
	list, ok := lv.([]graph.Value)
	if !ok {
		return nil, evalErrorf("list comprehension over non-list %T", lv)
	}
	inner := row.clone()
	var out []graph.Value
	for _, el := range list {
		// One eval step per element: comprehensions over large lists
		// (e.g. built by range()) must stay cancelable.
		if err := c.checkCancel(); err != nil {
			return nil, err
		}
		inner[x.Var] = el
		if x.Where != nil {
			pass, err := c.eval(x.Where, inner)
			if err != nil {
				return nil, err
			}
			if b, ok := pass.(bool); !ok || !b {
				continue
			}
		}
		if x.Proj != nil {
			v, err := c.eval(x.Proj, inner)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		} else {
			out = append(out, el)
		}
	}
	if out == nil {
		out = []graph.Value{}
	}
	return out, nil
}

func (c *evalCtx) evalQuantified(x *QuantifiedExpr, row Row) (graph.Value, error) {
	lv, err := c.eval(x.List, row)
	if err != nil {
		return nil, err
	}
	if graph.KindOf(lv) == graph.KindNull {
		return nil, nil
	}
	list, ok := lv.([]graph.Value)
	if !ok {
		return nil, evalErrorf("%s() over non-list %T", x.Kind, lv)
	}
	inner := row.clone()
	matches := 0
	for _, el := range list {
		if err := c.checkCancel(); err != nil {
			return nil, err
		}
		inner[x.Var] = el
		pass, err := c.eval(x.Where, inner)
		if err != nil {
			return nil, err
		}
		if b, ok := pass.(bool); ok && b {
			matches++
		}
	}
	switch x.Kind {
	case "any":
		return matches > 0, nil
	case "all":
		return matches == len(list), nil
	case "none":
		return matches == 0, nil
	case "single":
		return matches == 1, nil
	}
	return nil, evalErrorf("unknown quantifier %s", x.Kind)
}

// patternExists evaluates a pattern predicate: true when at least one
// match of the pattern extends the current row.
func (c *evalCtx) patternExists(pat *Pattern, row Row) (graph.Value, error) {
	m := &matcher{ctx: c, usedRels: map[int64]bool{}}
	found := false
	err := m.match(pat, row, func(Row) bool {
		found = true
		return false // stop at first match
	})
	if err != nil {
		return nil, err
	}
	return found, nil
}
