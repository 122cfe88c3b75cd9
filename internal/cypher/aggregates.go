package cypher

import (
	"math"
	"sort"

	"chatiyp/internal/graph"
)

// evalAggExpr evaluates an expression that contains aggregate function
// applications over a group of rows: aggregate calls are computed across
// the group, everything else is evaluated on the group's representative
// row (which, per Cypher grouping rules, is constant within the group).
// It is the per-group body of the streaming aggregate operator.
func evalAggExpr(ctx *evalCtx, e Expr, group []Row) (graph.Value, error) {
	if !containsAggregate(e) {
		if len(group) == 0 {
			return nil, nil
		}
		return ctx.eval(e, group[0])
	}
	switch x := e.(type) {
	case *FuncCall:
		if isAggregateFunc(x.Name) {
			return computeAggregate(ctx, x, group)
		}
		// Scalar function over aggregate arguments, e.g.
		// round(avg(p.percent)).
		args := make([]Expr, len(x.Args))
		for i, a := range x.Args {
			v, err := evalAggExpr(ctx, a, group)
			if err != nil {
				return nil, err
			}
			args[i] = valueExpr(v)
		}
		return ctx.evalFunc(&FuncCall{Name: x.Name, Args: args}, Row{})
	case *Binary:
		lv, err := evalAggExpr(ctx, x.Left, group)
		if err != nil {
			return nil, err
		}
		rv, err := evalAggExpr(ctx, x.Right, group)
		if err != nil {
			return nil, err
		}
		return ctx.evalBinary(&Binary{Op: x.Op, Left: valueExpr(lv), Right: valueExpr(rv)}, Row{})
	case *Unary:
		v, err := evalAggExpr(ctx, x.Expr, group)
		if err != nil {
			return nil, err
		}
		return ctx.evalUnary(&Unary{Op: x.Op, Expr: valueExpr(v)}, Row{})
	case *IndexExpr:
		subj, err := evalAggExpr(ctx, x.Subject, group)
		if err != nil {
			return nil, err
		}
		ix := &IndexExpr{Subject: valueExpr(subj), Index: x.Index, To: x.To, IsSlice: x.IsSlice}
		row := Row{}
		if len(group) > 0 {
			row = group[0]
		}
		return ctx.evalIndex(ix, row)
	case *PropertyAccess:
		subj, err := evalAggExpr(ctx, x.Subject, group)
		if err != nil {
			return nil, err
		}
		row := Row{}
		if len(group) > 0 {
			row = group[0]
		}
		return ctx.eval(&PropertyAccess{Subject: valueExpr(subj), Prop: x.Prop}, row)
	}
	return nil, evalErrorf("unsupported aggregate expression shape %T", e)
}

// valueExpr wraps a computed value as a literal expression so partial
// aggregate results can flow back through the scalar evaluator. Values
// that are not literal kinds (nodes, lists) are carried via a sentinel
// literal understood by eval.
type boxedValue struct{ v graph.Value }

func (*boxedValue) exprNode() {}

func valueExpr(v graph.Value) Expr { return &boxedValue{v: v} }

// computeAggregate evaluates one aggregate function over a row group.
func computeAggregate(ctx *evalCtx, x *FuncCall, group []Row) (graph.Value, error) {
	if x.Star {
		if x.Name != "count" {
			return nil, evalErrorf("%s(*) is not supported", x.Name)
		}
		return int64(len(group)), nil
	}
	if len(x.Args) == 0 {
		return nil, evalErrorf("%s() requires an argument", x.Name)
	}
	arg := x.Args[0]
	// Gather non-null argument values across the group.
	var vals []graph.Value
	seen := map[string]bool{}
	for _, row := range group {
		v, err := ctx.eval(arg, row)
		if err != nil {
			return nil, err
		}
		if graph.KindOf(v) == graph.KindNull {
			continue
		}
		if x.Distinct {
			key := graph.ValueKey(v)
			if seen[key] {
				continue
			}
			seen[key] = true
		}
		vals = append(vals, v)
	}
	switch x.Name {
	case "count":
		return int64(len(vals)), nil
	case "collect":
		if vals == nil {
			vals = []graph.Value{}
		}
		return vals, nil
	case "sum":
		return sumValues(vals)
	case "avg":
		if len(vals) == 0 {
			return nil, nil
		}
		s, err := sumValues(vals)
		if err != nil {
			return nil, err
		}
		f, _ := graph.AsFloat(s)
		return f / float64(len(vals)), nil
	case "min":
		if len(vals) == 0 {
			return nil, nil
		}
		best := vals[0]
		for _, v := range vals[1:] {
			if graph.TotalLess(v, best) {
				best = v
			}
		}
		return best, nil
	case "max":
		if len(vals) == 0 {
			return nil, nil
		}
		best := vals[0]
		for _, v := range vals[1:] {
			if graph.TotalLess(best, v) {
				best = v
			}
		}
		return best, nil
	case "stdev":
		if len(vals) < 2 {
			return float64(0), nil
		}
		fs, err := toFloats(vals)
		if err != nil {
			return nil, err
		}
		mean := 0.0
		for _, f := range fs {
			mean += f
		}
		mean /= float64(len(fs))
		ss := 0.0
		for _, f := range fs {
			d := f - mean
			ss += d * d
		}
		return math.Sqrt(ss / float64(len(fs)-1)), nil
	case "percentilecont", "percentiledisc":
		if len(x.Args) != 2 {
			return nil, evalErrorf("%s() expects 2 arguments", x.Name)
		}
		if len(vals) == 0 {
			return nil, nil
		}
		pv, err := ctx.eval(x.Args[1], group[0])
		if err != nil {
			return nil, err
		}
		p, ok := graph.AsFloat(pv)
		if !ok || p < 0 || p > 1 {
			return nil, evalErrorf("%s() percentile must be in [0,1]", x.Name)
		}
		fs, err := toFloats(vals)
		if err != nil {
			return nil, err
		}
		sort.Float64s(fs)
		if x.Name == "percentiledisc" {
			idx := int(math.Ceil(p*float64(len(fs)))) - 1
			if idx < 0 {
				idx = 0
			}
			return fs[idx], nil
		}
		if len(fs) == 1 {
			return fs[0], nil
		}
		pos := p * float64(len(fs)-1)
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		frac := pos - float64(lo)
		return fs[lo]*(1-frac) + fs[hi]*frac, nil
	}
	return nil, evalErrorf("unknown aggregate %s()", x.Name)
}

func sumValues(vals []graph.Value) (graph.Value, error) {
	allInt := true
	var fi int64
	var ff float64
	for _, v := range vals {
		switch n := v.(type) {
		case int64:
			fi += n
			ff += float64(n)
		case float64:
			allInt = false
			ff += n
		default:
			return nil, evalErrorf("sum() over non-number %T", v)
		}
	}
	if allInt {
		return fi, nil
	}
	return ff, nil
}

func toFloats(vals []graph.Value) ([]float64, error) {
	out := make([]float64, len(vals))
	for i, v := range vals {
		f, ok := graph.AsFloat(v)
		if !ok {
			return nil, evalErrorf("numeric aggregate over non-number %T", v)
		}
		out[i] = f
	}
	return out, nil
}
