package cypher

import (
	"maps"
	"math"
	"slices"
	"strconv"
	"strings"

	"chatiyp/internal/graph"
)

// evalFunc applies a non-aggregate builtin function.
func (c *evalCtx) evalFunc(x *FuncCall, row Row) (graph.Value, error) {
	args := make([]graph.Value, len(x.Args))
	for i, a := range x.Args {
		v, err := c.eval(a, row)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	arity := func(n int) error {
		if len(args) != n {
			return evalErrorf("%s() expects %d argument(s), got %d", x.Name, n, len(args))
		}
		return nil
	}
	nullIn := func() bool {
		for _, a := range args {
			if graph.KindOf(a) == graph.KindNull {
				return true
			}
		}
		return false
	}
	switch x.Name {
	case "id":
		if err := arity(1); err != nil {
			return nil, err
		}
		switch e := args[0].(type) {
		case nil:
			return nil, nil
		case *graph.Node:
			return e.ID, nil
		case *graph.Relationship:
			return e.ID, nil
		default:
			return nil, evalErrorf("id() of %T", args[0])
		}
	case "labels":
		if err := arity(1); err != nil {
			return nil, err
		}
		switch e := args[0].(type) {
		case nil:
			return nil, nil
		case *graph.Node:
			out := make([]graph.Value, len(e.Labels))
			for i, l := range e.Labels {
				out[i] = l
			}
			return out, nil
		default:
			return nil, evalErrorf("labels() of %T", args[0])
		}
	case "type":
		if err := arity(1); err != nil {
			return nil, err
		}
		switch e := args[0].(type) {
		case nil:
			return nil, nil
		case *graph.Relationship:
			return e.Type, nil
		default:
			return nil, evalErrorf("type() of %T", args[0])
		}
	case "properties":
		if err := arity(1); err != nil {
			return nil, err
		}
		switch e := args[0].(type) {
		case nil:
			return nil, nil
		case *graph.Node:
			return e.Props.Map(), nil
		case *graph.Relationship:
			return e.Props.Map(), nil
		case map[string]graph.Value:
			return e, nil
		default:
			return nil, evalErrorf("properties() of %T", args[0])
		}
	case "keys":
		if err := arity(1); err != nil {
			return nil, err
		}
		var ks []string
		switch e := args[0].(type) {
		case nil:
			return nil, nil
		case *graph.Node:
			ks = propKeys(e.Props)
		case *graph.Relationship:
			ks = propKeys(e.Props)
		case map[string]graph.Value:
			ks = slices.Sorted(maps.Keys(e))
		default:
			return nil, evalErrorf("keys() of %T", args[0])
		}
		out := make([]graph.Value, len(ks))
		for i, k := range ks {
			out[i] = k
		}
		return out, nil
	case "size", "length":
		if err := arity(1); err != nil {
			return nil, err
		}
		switch e := args[0].(type) {
		case nil:
			return nil, nil
		case string:
			return int64(len([]rune(e))), nil
		case []graph.Value:
			return int64(len(e)), nil
		case map[string]graph.Value:
			return int64(len(e)), nil
		case graph.Path:
			return int64(e.Len()), nil
		default:
			return nil, evalErrorf("%s() of %T", x.Name, args[0])
		}
	case "head":
		if err := arity(1); err != nil {
			return nil, err
		}
		if list, ok := args[0].([]graph.Value); ok {
			if len(list) == 0 {
				return nil, nil
			}
			return list[0], nil
		}
		return nil, nil
	case "last":
		if err := arity(1); err != nil {
			return nil, err
		}
		if list, ok := args[0].([]graph.Value); ok {
			if len(list) == 0 {
				return nil, nil
			}
			return list[len(list)-1], nil
		}
		return nil, nil
	case "tail":
		if err := arity(1); err != nil {
			return nil, err
		}
		if list, ok := args[0].([]graph.Value); ok {
			if len(list) == 0 {
				return []graph.Value{}, nil
			}
			return append([]graph.Value(nil), list[1:]...), nil
		}
		return nil, nil
	case "reverse":
		if err := arity(1); err != nil {
			return nil, err
		}
		switch e := args[0].(type) {
		case nil:
			return nil, nil
		case string:
			rs := []rune(e)
			for i, j := 0, len(rs)-1; i < j; i, j = i+1, j-1 {
				rs[i], rs[j] = rs[j], rs[i]
			}
			return string(rs), nil
		case []graph.Value:
			out := make([]graph.Value, len(e))
			for i, v := range e {
				out[len(e)-1-i] = v
			}
			return out, nil
		default:
			return nil, evalErrorf("reverse() of %T", args[0])
		}
	case "range":
		if len(args) < 2 || len(args) > 3 {
			return nil, evalErrorf("range() expects 2 or 3 arguments")
		}
		if nullIn() {
			return nil, nil
		}
		from, ok1 := graph.AsInt(args[0])
		to, ok2 := graph.AsInt(args[1])
		step := int64(1)
		if len(args) == 3 {
			s, ok := graph.AsInt(args[2])
			if !ok || s == 0 {
				return nil, evalErrorf("range() step must be a non-zero integer")
			}
			step = s
		}
		if !ok1 || !ok2 {
			return nil, evalErrorf("range() bounds must be integers")
		}
		// range() is the one expression that generates unbounded work
		// from constant inputs, so it polls for cancellation itself —
		// the executors' per-row checks never see inside a single eval.
		var out []graph.Value
		if step > 0 {
			for i := from; i <= to; i += step {
				if err := c.checkCancel(); err != nil {
					return nil, err
				}
				out = append(out, i)
			}
		} else {
			for i := from; i >= to; i += step {
				if err := c.checkCancel(); err != nil {
					return nil, err
				}
				out = append(out, i)
			}
		}
		if out == nil {
			out = []graph.Value{}
		}
		return out, nil
	case "coalesce":
		for _, a := range args {
			if graph.KindOf(a) != graph.KindNull {
				return a, nil
			}
		}
		return nil, nil
	case "exists":
		if err := arity(1); err != nil {
			return nil, err
		}
		return graph.KindOf(args[0]) != graph.KindNull, nil
	case "startnode":
		if err := arity(1); err != nil {
			return nil, err
		}
		if r, ok := args[0].(*graph.Relationship); ok {
			return c.r.Node(r.StartID), nil
		}
		return nil, nil
	case "endnode":
		if err := arity(1); err != nil {
			return nil, err
		}
		if r, ok := args[0].(*graph.Relationship); ok {
			return c.r.Node(r.EndID), nil
		}
		return nil, nil
	case "nodes":
		if err := arity(1); err != nil {
			return nil, err
		}
		if p, ok := args[0].(graph.Path); ok {
			out := make([]graph.Value, len(p.Nodes))
			for i, n := range p.Nodes {
				out[i] = n
			}
			return out, nil
		}
		return nil, nil
	case "relationships", "rels":
		if err := arity(1); err != nil {
			return nil, err
		}
		if p, ok := args[0].(graph.Path); ok {
			out := make([]graph.Value, len(p.Rels))
			for i, r := range p.Rels {
				out[i] = r
			}
			return out, nil
		}
		return nil, nil
	// --- numeric ---
	case "abs", "ceil", "floor", "round", "sqrt", "sign", "log", "log10", "exp":
		if err := arity(1); err != nil {
			return nil, err
		}
		if nullIn() {
			return nil, nil
		}
		if i, ok := args[0].(int64); ok && x.Name == "abs" {
			if i < 0 {
				return -i, nil
			}
			return i, nil
		}
		f, ok := graph.AsFloat(args[0])
		if !ok {
			return nil, evalErrorf("%s() of non-number %T", x.Name, args[0])
		}
		switch x.Name {
		case "abs":
			return math.Abs(f), nil
		case "ceil":
			return math.Ceil(f), nil
		case "floor":
			return math.Floor(f), nil
		case "round":
			return math.Round(f), nil
		case "sqrt":
			if f < 0 {
				return nil, evalErrorf("sqrt() of negative number")
			}
			return math.Sqrt(f), nil
		case "sign":
			switch {
			case f > 0:
				return int64(1), nil
			case f < 0:
				return int64(-1), nil
			default:
				return int64(0), nil
			}
		case "log":
			return math.Log(f), nil
		case "log10":
			return math.Log10(f), nil
		case "exp":
			return math.Exp(f), nil
		}
	case "tointeger", "toint":
		if err := arity(1); err != nil {
			return nil, err
		}
		switch e := args[0].(type) {
		case nil:
			return nil, nil
		case int64:
			return e, nil
		case float64:
			return int64(e), nil
		case string:
			if i, err := strconv.ParseInt(strings.TrimSpace(e), 10, 64); err == nil {
				return i, nil
			}
			if f, err := strconv.ParseFloat(strings.TrimSpace(e), 64); err == nil {
				return int64(f), nil
			}
			return nil, nil
		case bool:
			if e {
				return int64(1), nil
			}
			return int64(0), nil
		default:
			return nil, nil
		}
	case "tofloat":
		if err := arity(1); err != nil {
			return nil, err
		}
		switch e := args[0].(type) {
		case nil:
			return nil, nil
		case int64:
			return float64(e), nil
		case float64:
			return e, nil
		case string:
			if f, err := strconv.ParseFloat(strings.TrimSpace(e), 64); err == nil {
				return f, nil
			}
			return nil, nil
		default:
			return nil, nil
		}
	case "tostring":
		if err := arity(1); err != nil {
			return nil, err
		}
		if graph.KindOf(args[0]) == graph.KindNull {
			return nil, nil
		}
		return graph.FormatValue(args[0]), nil
	case "toboolean":
		if err := arity(1); err != nil {
			return nil, err
		}
		switch e := args[0].(type) {
		case nil:
			return nil, nil
		case bool:
			return e, nil
		case string:
			switch strings.ToLower(strings.TrimSpace(e)) {
			case "true":
				return true, nil
			case "false":
				return false, nil
			}
			return nil, nil
		default:
			return nil, nil
		}
	// --- strings ---
	case "toupper", "upper":
		if err := arity(1); err != nil {
			return nil, err
		}
		return stringFunc(args[0], strings.ToUpper)
	case "tolower", "lower":
		if err := arity(1); err != nil {
			return nil, err
		}
		return stringFunc(args[0], strings.ToLower)
	case "trim":
		if err := arity(1); err != nil {
			return nil, err
		}
		return stringFunc(args[0], strings.TrimSpace)
	case "ltrim":
		if err := arity(1); err != nil {
			return nil, err
		}
		return stringFunc(args[0], func(s string) string { return strings.TrimLeft(s, " \t\n\r") })
	case "rtrim":
		if err := arity(1); err != nil {
			return nil, err
		}
		return stringFunc(args[0], func(s string) string { return strings.TrimRight(s, " \t\n\r") })
	case "replace":
		if err := arity(3); err != nil {
			return nil, err
		}
		if nullIn() {
			return nil, nil
		}
		s, ok1 := args[0].(string)
		from, ok2 := args[1].(string)
		to, ok3 := args[2].(string)
		if !ok1 || !ok2 || !ok3 {
			return nil, evalErrorf("replace() requires strings")
		}
		return strings.ReplaceAll(s, from, to), nil
	case "split":
		if err := arity(2); err != nil {
			return nil, err
		}
		if nullIn() {
			return nil, nil
		}
		s, ok1 := args[0].(string)
		sep, ok2 := args[1].(string)
		if !ok1 || !ok2 {
			return nil, evalErrorf("split() requires strings")
		}
		parts := strings.Split(s, sep)
		out := make([]graph.Value, len(parts))
		for i, p := range parts {
			out[i] = p
		}
		return out, nil
	case "substring":
		if len(args) < 2 || len(args) > 3 {
			return nil, evalErrorf("substring() expects 2 or 3 arguments")
		}
		if nullIn() {
			return nil, nil
		}
		s, ok := args[0].(string)
		if !ok {
			return nil, evalErrorf("substring() of non-string")
		}
		start, ok := graph.AsInt(args[1])
		if !ok || start < 0 {
			return nil, evalErrorf("substring() start must be a non-negative integer")
		}
		rs := []rune(s)
		if int(start) >= len(rs) {
			return "", nil
		}
		end := len(rs)
		if len(args) == 3 {
			length, ok := graph.AsInt(args[2])
			if !ok || length < 0 {
				return nil, evalErrorf("substring() length must be a non-negative integer")
			}
			if e := int(start + length); e < end {
				end = e
			}
		}
		return string(rs[start:end]), nil
	case "left":
		if err := arity(2); err != nil {
			return nil, err
		}
		if nullIn() {
			return nil, nil
		}
		s, ok := args[0].(string)
		n, ok2 := graph.AsInt(args[1])
		if !ok || !ok2 || n < 0 {
			return nil, evalErrorf("left() requires (string, non-negative integer)")
		}
		rs := []rune(s)
		if int(n) > len(rs) {
			n = int64(len(rs))
		}
		return string(rs[:n]), nil
	case "right":
		if err := arity(2); err != nil {
			return nil, err
		}
		if nullIn() {
			return nil, nil
		}
		s, ok := args[0].(string)
		n, ok2 := graph.AsInt(args[1])
		if !ok || !ok2 || n < 0 {
			return nil, evalErrorf("right() requires (string, non-negative integer)")
		}
		rs := []rune(s)
		if int(n) > len(rs) {
			n = int64(len(rs))
		}
		return string(rs[len(rs)-int(n):]), nil
	}
	return nil, evalErrorf("unknown function %s()", x.Name)
}

func stringFunc(v graph.Value, f func(string) string) (graph.Value, error) {
	switch s := v.(type) {
	case nil:
		return nil, nil
	case string:
		return f(s), nil
	default:
		return nil, evalErrorf("string function applied to %T", v)
	}
}

// propKeys lists an entity's property keys, which Props keeps sorted.
func propKeys(p graph.Props) []string {
	ks := make([]string, len(p))
	for i, e := range p {
		ks[i] = e.Key
	}
	return ks
}
