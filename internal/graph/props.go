package graph

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
)

// Prop is one property of a node or relationship.
type Prop struct {
	Key string
	Val Value
}

// Props is the property set of a node or relationship: sorted by key,
// keys unique, no nil values. A Props is immutable once it is attached
// to an entity — With returns a new slice — so a published epoch and
// the live graph can share one without copying. The empty set is nil.
//
// Entities carry a handful of properties each, and one exact-size
// slice costs 32 bytes per property against 336 for the smallest
// non-empty Go map.
type Props []Prop

// Get returns the value of the property key and whether it is present.
// Entities carry a few properties, so a linear scan beats a search.
func (p Props) Get(key string) (Value, bool) {
	for i := range p {
		if p[i].Key == key {
			return p[i].Val, true
		}
	}
	return nil, false
}

// With returns a copy of p with key set to v, or with key removed when
// v is nil. p itself is never modified.
func (p Props) With(key string, v Value) Props {
	i, found := slices.BinarySearchFunc(p, key, func(e Prop, k string) int { return strings.Compare(e.Key, k) })
	switch {
	case found && v == nil:
		return slices.Concat(p[:i], p[i+1:]) // nil when nothing is left
	case found:
		out := slices.Clone(p)
		out[i].Val = v
		return out
	case v == nil:
		return p
	default:
		return slices.Concat(p[:i], Props{{key, v}}, p[i:])
	}
}

// Map returns the properties as a fresh map the caller may modify.
func (p Props) Map() map[string]Value {
	m := make(map[string]Value, len(p))
	for _, e := range p {
		m[e.Key] = e.Val
	}
	return m
}

// PropsOf builds a Props from a map, dropping nil values.
func PropsOf(m map[string]Value) Props {
	if len(m) == 0 {
		return nil
	}
	p := make(Props, 0, len(m))
	for k, v := range m {
		if v != nil {
			p = append(p, Prop{k, v})
		}
	}
	if len(p) == 0 {
		return nil
	}
	slices.SortFunc(p, func(a, b Prop) int { return strings.Compare(a.Key, b.Key) })
	return p
}

// MarshalJSON writes the properties as one JSON object in key order —
// the bytes encoding/json writes for the equivalent map — and {} when
// there are none.
func (p Props) MarshalJSON() ([]byte, error) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	// The enclosing encoder applies its own HTML-escaping setting to
	// what a Marshaler returns; escaping here too would be irreversible.
	enc.SetEscapeHTML(false)
	b.WriteByte('{')
	for i, e := range p {
		if i > 0 {
			b.WriteByte(',')
		}
		if err := enc.Encode(e.Key); err != nil {
			return nil, err
		}
		b.Truncate(b.Len() - 1) // Encode's trailing newline
		b.WriteByte(':')
		if err := enc.Encode(e.Val); err != nil {
			return nil, err
		}
		b.Truncate(b.Len() - 1)
	}
	b.WriteByte('}')
	return b.Bytes(), nil
}
