package graph

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// JSON-lines interop format: one record per line, nodes first, matching
// the dump shape the real IYP publishes. Record kinds:
//
//	{"kind":"node","id":1,"labels":["AS"],"props":{"asn":2497}}
//	{"kind":"rel","id":1,"type":"COUNTRY","start":1,"end":2,"props":{}}
//	{"kind":"index","label":"AS","property":"asn"}
type jsonRecord struct {
	Kind     string         `json:"kind"`
	ID       int64          `json:"id,omitempty"`
	Labels   []string       `json:"labels,omitempty"`
	Type     string         `json:"type,omitempty"`
	Start    int64          `json:"start,omitempty"`
	End      int64          `json:"end,omitempty"`
	Props    map[string]any `json:"props,omitempty"`
	Label    string         `json:"label,omitempty"`
	Property string         `json:"property,omitempty"`
}

// WriteJSONLines exports the current epoch as JSON lines (see
// View.WriteJSONLines).
func (g *Graph) WriteJSONLines(w io.Writer) error { return g.View().WriteJSONLines(w) }

// WriteJSONLines exports the pinned epoch as JSON lines: every index
// declaration, then every node, then every relationship, all in
// deterministic ID order.
func (v *View) WriteJSONLines(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ix := range v.Indexes() {
		if err := enc.Encode(jsonRecord{Kind: "index", Label: ix[0], Property: ix[1]}); err != nil {
			return err
		}
	}
	var err error
	v.ForEachNode(func(n *Node) bool {
		err = enc.Encode(jsonRecord{Kind: "node", ID: n.ID, Labels: n.Labels, Props: propsToJSON(n.Props)})
		return err == nil
	})
	if err != nil {
		return err
	}
	v.ForEachRelationship(func(r *Relationship) bool {
		err = enc.Encode(jsonRecord{
			Kind: "rel", ID: r.ID, Type: r.Type, Start: r.StartID, End: r.EndID,
			Props: propsToJSON(r.Props),
		})
		return err == nil
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

func propsToJSON(props Props) map[string]any {
	out := make(map[string]any, len(props))
	for _, p := range props {
		out[p.Key] = p.Val
	}
	return out
}

// ReadJSONLines imports a graph previously exported with
// WriteJSONLines. Node and relationship IDs are preserved; a repeated
// ID's last record wins.
func ReadJSONLines(r io.Reader) (*Graph, error) {
	g := New()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<22)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var rec jsonRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("graph: json line %d: %w", line, err)
		}
		switch rec.Kind {
		case "index":
			g.CreateIndex(rec.Label, rec.Property)
		case "node":
			if rec.ID < 1 {
				// Epoch tables (view.go) are ID-indexed, so IDs must be
				// positive.
				return nil, fmt.Errorf("graph: json line %d: invalid node id %d", line, rec.ID)
			}
			props, err := jsonToProps(rec.Props)
			if err != nil {
				return nil, fmt.Errorf("graph: json line %d: %w", line, err)
			}
			labels := rec.Labels
			if labels == nil {
				labels = []string{}
			}
			g.mu.Lock()
			g.putNodeLocked(&Node{ID: rec.ID, Labels: labels, Props: props})
			g.mu.Unlock()
		case "rel":
			if rec.ID < 1 {
				return nil, fmt.Errorf("graph: json line %d: invalid rel id %d", line, rec.ID)
			}
			props, err := jsonToProps(rec.Props)
			if err != nil {
				return nil, fmt.Errorf("graph: json line %d: %w", line, err)
			}
			g.mu.Lock()
			for _, end := range []int64{rec.Start, rec.End} {
				if !g.hasNodeLocked(end) {
					g.mu.Unlock()
					return nil, fmt.Errorf("graph: json line %d: rel %d references missing node %d", line, rec.ID, end)
				}
			}
			g.putRelLocked(&Relationship{ID: rec.ID, Type: rec.Type, StartID: rec.Start, EndID: rec.End, Props: props})
			g.mu.Unlock()
		default:
			return nil, fmt.Errorf("graph: json line %d: unknown record kind %q", line, rec.Kind)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return g, nil
}

// jsonToProps normalizes decoded JSON values: numbers arrive as
// float64; integral floats become int64 so round-trips preserve the
// canonical representation. A null property is no property.
func jsonToProps(raw map[string]any) (Props, error) {
	out := make(map[string]Value, len(raw))
	for k, v := range raw {
		nv, err := normalizeJSON(v)
		if err != nil {
			return nil, fmt.Errorf("property %q: %w", k, err)
		}
		out[k] = nv
	}
	return PropsOf(out), nil
}

func normalizeJSON(v any) (Value, error) {
	switch x := v.(type) {
	case float64:
		if x == float64(int64(x)) {
			return int64(x), nil
		}
		return x, nil
	case []any:
		out := make([]Value, len(x))
		for i, e := range x {
			n, err := normalizeJSON(e)
			if err != nil {
				return nil, err
			}
			out[i] = n
		}
		return out, nil
	case map[string]any:
		out := make(map[string]Value, len(x))
		for k, e := range x {
			n, err := normalizeJSON(e)
			if err != nil {
				return nil, err
			}
			out[k] = n
		}
		return out, nil
	default:
		return NormalizeValue(v)
	}
}
