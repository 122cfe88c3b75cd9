package graph

import (
	"encoding/json"
	"reflect"
	"testing"
)

// propsEqual compares two property sets key by key under Cypher value
// equality.
func propsEqual(a, b Props) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Key != b[i].Key || !ValuesEqual(a[i].Val, b[i].Val) {
			return false
		}
	}
	return true
}

func TestPropsWithGetMap(t *testing.T) {
	var p Props
	p = p.With("b", int64(2))
	p = p.With("a", "x")
	p = p.With("c", 1.5)
	want := Props{{"a", "x"}, {"b", int64(2)}, {"c", 1.5}}
	if !reflect.DeepEqual(p, want) {
		t.Fatalf("With built %v, want %v", p, want)
	}
	q := p.With("b", int64(3))
	if v, _ := p.Get("b"); v != int64(2) {
		t.Fatalf("With modified its receiver: b = %v", v)
	}
	if v, ok := q.Get("b"); !ok || v != int64(3) {
		t.Fatalf("Get(b) = %v, %v after With", v, ok)
	}
	if _, ok := q.Get("zz"); ok {
		t.Fatal("Get reports an absent key")
	}
	if r := q.With("zz", nil); len(r) != 3 {
		t.Fatalf("removing an absent key changed the set: %v", r)
	}
	r := q.With("b", nil).With("a", nil)
	if !reflect.DeepEqual(r, Props{{"c", 1.5}}) {
		t.Fatalf("removals left %v", r)
	}
	if r = r.With("c", nil); r != nil {
		t.Fatalf("removing the last key left %#v, want nil", r)
	}
	if m := q.Map(); !reflect.DeepEqual(m, map[string]Value{"a": "x", "b": int64(3), "c": 1.5}) {
		t.Fatalf("Map() = %v", m)
	}
	if got := PropsOf(map[string]Value{"b": true, "a": nil, "c": "s"}); !reflect.DeepEqual(got, Props{{"b", true}, {"c", "s"}}) {
		t.Fatalf("PropsOf = %v", got)
	}
	if got := PropsOf(map[string]Value{"a": nil}); got != nil {
		t.Fatalf("PropsOf of only nils = %#v, want nil", got)
	}
}

// TestPropsMarshalJSON: the wire bytes of a property set are the bytes
// encoding/json writes for the equivalent map, and {} (never null) when
// there are none.
func TestPropsMarshalJSON(t *testing.T) {
	m := map[string]Value{
		"asn": int64(2497), "name": "IIJ <Internet> & co", "share": 0.25,
		"tags": []Value{"a", int64(1)}, "meta": map[string]Value{"z": true, "a": nil},
	}
	for _, tc := range []struct {
		props Props
		want  any
	}{
		{nil, map[string]Value{}},
		{Props{}, map[string]Value{}},
		{PropsOf(m), m},
	} {
		got, err := json.Marshal(struct{ P Props }{tc.props})
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(struct{ P any }{tc.want})
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("json = %s, want %s", got, want)
		}
	}
}

// TestColumnarPropsForeignRows: a property row that is unsorted,
// repeats a key or holds a null still materializes as valid Props.
func TestColumnarPropsForeignRows(t *testing.T) {
	lz := &colLazy{
		strs: &colStrings{offs: []uint32{0, 1, 2}, blob: []byte("ab")},
		vals: []Value{int64(1), int64(2), nil},
	}
	for _, tc := range []struct {
		pairs []uint32 // keyRef, valRef
		want  Props
	}{
		{[]uint32{0, 0, 1, 1}, Props{{"a", int64(1)}, {"b", int64(2)}}},
		{[]uint32{1, 0, 0, 1}, Props{{"a", int64(2)}, {"b", int64(1)}}},
		{[]uint32{0, 0, 0, 1}, Props{{"a", int64(2)}}},
		{[]uint32{0, 2, 1, 1}, Props{{"b", int64(2)}}},
		{[]uint32{0, 2}, nil},
		{nil, nil},
	} {
		n := uint32(len(tc.pairs) / 2)
		tbl := &colOffsets{offs: []uint32{0, n}, payload: tc.pairs, total: n}
		if got := lz.propsOf(tbl, 0); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("pairs %v: props %#v, want %#v", tc.pairs, got, tc.want)
		}
	}
}

// TestColumnarPropsAllocs guards the materialization cost of a cold
// load: the entity struct plus one exact-size property slice, and the
// struct alone for an entity without properties.
func TestColumnarPropsAllocs(t *testing.T) {
	orig := New()
	a := orig.MustCreateNode([]string{"AS"}, map[string]any{"asn": int64(1), "name": "one"})
	b := orig.MustCreateNode([]string{"AS"}, map[string]any{"asn": int64(2), "name": "two"})
	withProp := orig.MustCreateRelationship(a.ID, b.ID, "PEERS_WITH", map[string]any{"weight": int64(3)})
	bare := orig.MustCreateRelationship(b.ID, a.ID, "PEERS_WITH", nil)
	data, err := orig.View().MarshalColumnar(ColMeta{})
	if err != nil {
		t.Fatal(err)
	}
	const runs = 20
	views := make([]*View, runs+1) // AllocsPerRun calls once more to warm up
	fresh := func() func() *View {
		for i := range views {
			g, _, err := LoadColumnarBytes(data, ColLoadOptions{})
			if err != nil {
				t.Fatal(err)
			}
			views[i] = g.View()
		}
		next := 0
		return func() *View { next++; return views[next-1] }
	}
	for _, tc := range []struct {
		what  string
		touch func(*View) bool
		want  float64
	}{
		{"2-property node", func(v *View) bool { return v.Node(a.ID) != nil }, 2},
		{"1-property relationship", func(v *View) bool { return v.Relationship(withProp.ID) != nil }, 2},
		{"0-property relationship", func(v *View) bool { return v.Relationship(bare.ID) != nil }, 1},
	} {
		next := fresh()
		got := testing.AllocsPerRun(runs, func() {
			if !tc.touch(next()) {
				t.Fatalf("%s missing from the cold load", tc.what)
			}
		})
		if got != tc.want {
			t.Errorf("materializing a %s: %.1f allocations, want %.0f", tc.what, got, tc.want)
		}
	}
}
