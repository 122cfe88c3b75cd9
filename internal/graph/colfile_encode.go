package graph

// Columnar snapshot encoder: serializes one pinned epoch (readState)
// into the flat section layout described in colfile.go. Everything is
// written in deterministic order — ascending entity IDs, sorted
// property keys, sorted label/index tables — so the same epoch always
// produces byte-identical output.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"sort"
)

// colEncoder builds the deduplicated string and value pools. Strings
// are interned once and referenced by index everywhere (labels, types,
// property keys, value payloads, index value-keys); property values
// are deduplicated by their canonical ValueKey, so a value shared by a
// million nodes ("US", true, …) is stored and later decoded exactly
// once.
type colEncoder struct {
	strIdx  map[string]uint32
	strOffs []uint32
	strBlob []byte
	valIdx  map[string]uint32
	valOffs []uint32
	valBlob []byte
	keys    []string // scratch for sorted property-key iteration
}

func newColEncoder() *colEncoder {
	return &colEncoder{
		strIdx:  make(map[string]uint32),
		strOffs: []uint32{0},
		valIdx:  make(map[string]uint32),
		valOffs: []uint32{0},
	}
}

func (e *colEncoder) internString(s string) (uint32, error) {
	if i, ok := e.strIdx[s]; ok {
		return i, nil
	}
	if len(e.strBlob)+len(s) > math.MaxUint32 || len(e.strIdx) >= math.MaxUint32 {
		return 0, fmt.Errorf("graph: columnar: string pool exceeds 4 GiB")
	}
	i := uint32(len(e.strIdx))
	e.strIdx[s] = i
	e.strBlob = append(e.strBlob, s...)
	e.strOffs = append(e.strOffs, uint32(len(e.strBlob)))
	return i, nil
}

func (e *colEncoder) internValue(v Value) (uint32, error) {
	k := ValueKey(v)
	if i, ok := e.valIdx[k]; ok {
		return i, nil
	}
	blob, err := e.encodeValue(e.valBlob, v, 0)
	if err != nil {
		return 0, err
	}
	if len(blob) > math.MaxUint32 || len(e.valIdx) >= math.MaxUint32 {
		return 0, fmt.Errorf("graph: columnar: value pool exceeds 4 GiB")
	}
	i := uint32(len(e.valIdx))
	e.valIdx[k] = i
	e.valBlob = blob
	e.valOffs = append(e.valOffs, uint32(len(e.valBlob)))
	return i, nil
}

func (e *colEncoder) encodeValue(dst []byte, v Value, depth int) ([]byte, error) {
	if depth > colMaxValueDepth {
		return nil, fmt.Errorf("graph: columnar: value nesting exceeds %d", colMaxValueDepth)
	}
	switch t := v.(type) {
	case nil:
		return append(dst, valNil), nil
	case bool:
		if t {
			return append(dst, valTrue), nil
		}
		return append(dst, valFalse), nil
	case int64:
		dst = append(dst, valInt)
		return binary.NativeEndian.AppendUint64(dst, uint64(t)), nil
	case float64:
		dst = append(dst, valFloat)
		return binary.NativeEndian.AppendUint64(dst, math.Float64bits(t)), nil
	case string:
		ref, err := e.internString(t)
		if err != nil {
			return nil, err
		}
		dst = append(dst, valString)
		return binary.NativeEndian.AppendUint32(dst, ref), nil
	case []Value:
		dst = append(dst, valList)
		dst = binary.NativeEndian.AppendUint32(dst, uint32(len(t)))
		var err error
		for _, el := range t {
			if dst, err = e.encodeValue(dst, el, depth+1); err != nil {
				return nil, err
			}
		}
		return dst, nil
	case map[string]Value:
		dst = append(dst, valMap)
		dst = binary.NativeEndian.AppendUint32(dst, uint32(len(t)))
		keys := make([]string, 0, len(t))
		for k := range t {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			ref, err := e.internString(k)
			if err != nil {
				return nil, err
			}
			dst = binary.NativeEndian.AppendUint32(dst, ref)
			if dst, err = e.encodeValue(dst, t[k], depth+1); err != nil {
				return nil, err
			}
		}
		return dst, nil
	default:
		return nil, fmt.Errorf("graph: columnar: unsupported property value type %T", v)
	}
}

// sortedPropKeys returns props' keys sorted, reusing the encoder's
// scratch slice.
func (e *colEncoder) sortedPropKeys(props map[string]Value) []string {
	e.keys = e.keys[:0]
	for k := range props {
		e.keys = append(e.keys, k)
	}
	sort.Strings(e.keys)
	return e.keys
}

// MarshalColumnar serializes the pinned epoch into the columnar
// snapshot format. The graph lock is not touched: the epoch is
// immutable, so concurrent writers proceed while a checkpoint encodes.
func (v *View) MarshalColumnar(meta ColMeta) ([]byte, error) {
	rs := v.rs
	e := newColEncoder()
	n := rs.nodeCount

	// Node columns: labels and property pairs, offset-indexed per node
	// in allNodes (ascending ID) order.
	labelOffs := make([]uint32, 1, n+1)
	var labelRefs []uint32
	propOffs := make([]uint32, 1, n+1)
	var propPairs []uint32 // interleaved keyRef, valRef
	for _, id := range rs.allNodes {
		node := rs.nodeAt(id)
		for _, l := range node.Labels {
			ref, err := e.internString(l)
			if err != nil {
				return nil, err
			}
			labelRefs = append(labelRefs, ref)
		}
		labelOffs = append(labelOffs, uint32(len(labelRefs)))
		for _, k := range e.sortedPropKeys(node.Props) {
			kr, err := e.internString(k)
			if err != nil {
				return nil, err
			}
			vr, err := e.internValue(node.Props[k])
			if err != nil {
				return nil, fmt.Errorf("node %d property %q: %w", id, k, err)
			}
			propPairs = append(propPairs, kr, vr)
		}
		propOffs = append(propOffs, uint32(len(propPairs)/2))
	}
	if len(labelRefs) > math.MaxUint32 || len(propPairs)/2 > math.MaxUint32 {
		return nil, fmt.Errorf("graph: columnar: node tables exceed format limits")
	}

	// Relationship columns, ascending ID order.
	m := rs.relCount
	relIDs := make([]int64, 0, m)
	typeRefs := make([]uint32, 0, m)
	starts := make([]int64, 0, m)
	ends := make([]int64, 0, m)
	relPropOffs := make([]uint32, 1, m+1)
	var relPropPairs []uint32
	for id := int64(1); id < int64(len(rs.rels)); id++ {
		r := rs.relAt(id)
		if r == nil {
			continue
		}
		tr, err := e.internString(r.Type)
		if err != nil {
			return nil, err
		}
		relIDs = append(relIDs, r.ID)
		typeRefs = append(typeRefs, tr)
		starts = append(starts, r.StartID)
		ends = append(ends, r.EndID)
		for _, k := range e.sortedPropKeys(r.Props) {
			kr, err := e.internString(k)
			if err != nil {
				return nil, err
			}
			vr, err := e.internValue(r.Props[k])
			if err != nil {
				return nil, fmt.Errorf("relationship %d property %q: %w", r.ID, k, err)
			}
			relPropPairs = append(relPropPairs, kr, vr)
		}
		relPropOffs = append(relPropOffs, uint32(len(relPropPairs)/2))
	}
	if len(relIDs) != m {
		return nil, fmt.Errorf("graph: columnar: epoch rel table count %d != relCount %d", len(relIDs), m)
	}

	// Adjacency: every direction's full list and type buckets appended
	// to one flat int64 column; per-node span metadata as uint32 words:
	//   [allStart allLen nBuckets {typeRef start len}... ] x {out, in}
	var adjIDs []int64
	var adjWords []uint32
	adjOffs := make([]uint32, 1, n+1)
	appendDir := func(d *dirAdj) error {
		if len(adjIDs)+len(d.all) > math.MaxUint32 {
			return fmt.Errorf("graph: columnar: adjacency exceeds 2^32 entries")
		}
		adjWords = append(adjWords, uint32(len(adjIDs)), uint32(len(d.all)), uint32(len(d.byType)))
		adjIDs = append(adjIDs, d.all...)
		for i := range d.byType {
			b := &d.byType[i]
			ref, err := e.internString(b.typ)
			if err != nil {
				return err
			}
			adjWords = append(adjWords, ref, uint32(len(adjIDs)), uint32(len(b.ids)))
			adjIDs = append(adjIDs, b.ids...)
		}
		return nil
	}
	for _, id := range rs.allNodes {
		a := &rs.adj[id]
		if err := appendDir(&a.out); err != nil {
			return nil, err
		}
		if err := appendDir(&a.in); err != nil {
			return nil, err
		}
		if len(adjWords) > math.MaxUint32 {
			return nil, fmt.Errorf("graph: columnar: adjacency metadata exceeds format limits")
		}
		adjOffs = append(adjOffs, uint32(len(adjWords)))
	}

	// Label postings: sorted label order, each an ascending ID span.
	var labelMeta []byte
	var labelIDs []int64
	for _, l := range rs.labels {
		ids := rs.byLabel[l]
		ref, err := e.internString(l)
		if err != nil {
			return nil, err
		}
		if len(ids) > math.MaxUint32 {
			return nil, fmt.Errorf("graph: columnar: label %q posting exceeds format limits", l)
		}
		labelMeta = binary.NativeEndian.AppendUint32(labelMeta, ref)
		labelMeta = binary.NativeEndian.AppendUint32(labelMeta, uint32(len(ids)))
		labelMeta = binary.NativeEndian.AppendUint64(labelMeta, uint64(len(labelIDs)))
		labelIDs = append(labelIDs, ids...)
	}

	// Property-index postings: (label, property) pairs sorted, then
	// value-key buckets sorted, each an ascending ID span. Storing the
	// postings (rather than re-deriving them from node values at load)
	// skips every ValueKey recomputation on the startup path.
	var idxPairs, idxBuckets []byte
	var idxIDs []int64
	pairCount, bucketCount := 0, 0
	idxLabels := make([]string, 0, len(rs.indexed))
	for l := range rs.indexed {
		idxLabels = append(idxLabels, l)
	}
	sort.Strings(idxLabels)
	for _, l := range idxLabels {
		props := make([]string, 0, len(rs.indexed[l]))
		for p, on := range rs.indexed[l] {
			if on {
				props = append(props, p)
			}
		}
		sort.Strings(props)
		for _, p := range props {
			lr, err := e.internString(l)
			if err != nil {
				return nil, err
			}
			pr, err := e.internString(p)
			if err != nil {
				return nil, err
			}
			byVal := rs.propIndex[l][p]
			vkeys := make([]string, 0, len(byVal))
			for k, ids := range byVal {
				if len(ids) > 0 {
					vkeys = append(vkeys, k)
				}
			}
			sort.Strings(vkeys)
			idxPairs = binary.NativeEndian.AppendUint32(idxPairs, lr)
			idxPairs = binary.NativeEndian.AppendUint32(idxPairs, pr)
			idxPairs = binary.NativeEndian.AppendUint32(idxPairs, uint32(bucketCount))
			idxPairs = binary.NativeEndian.AppendUint32(idxPairs, uint32(len(vkeys)))
			pairCount++
			for _, k := range vkeys {
				kr, err := e.internString(k)
				if err != nil {
					return nil, err
				}
				ids := byVal[k]
				if len(ids) > math.MaxUint32 {
					return nil, fmt.Errorf("graph: columnar: index bucket exceeds format limits")
				}
				idxBuckets = binary.NativeEndian.AppendUint32(idxBuckets, kr)
				idxBuckets = binary.NativeEndian.AppendUint32(idxBuckets, uint32(len(ids)))
				idxBuckets = binary.NativeEndian.AppendUint64(idxBuckets, uint64(len(idxIDs)))
				idxIDs = append(idxIDs, ids...)
				bucketCount++
			}
		}
	}

	// META section.
	metaBuf := make([]byte, 0, colMetaSize)
	metaBuf = binary.NativeEndian.AppendUint64(metaBuf, uint64(rs.nextNode))
	metaBuf = binary.NativeEndian.AppendUint64(metaBuf, uint64(rs.nextRel))
	metaBuf = binary.NativeEndian.AppendUint64(metaBuf, uint64(n))
	metaBuf = binary.NativeEndian.AppendUint64(metaBuf, uint64(m))
	metaBuf = binary.NativeEndian.AppendUint64(metaBuf, rs.version)
	metaBuf = binary.NativeEndian.AppendUint64(metaBuf, meta.LastSeq)
	metaBuf = binary.NativeEndian.AppendUint64(metaBuf, meta.StoreID)
	metaBuf = binary.NativeEndian.AppendUint64(metaBuf, 0) // reserved

	// Offset-table sections share the shape: u64 count, (n+1) u32
	// offsets, payload.
	offsetSection := func(count uint64, offs []uint32, payload []byte) []byte {
		out := binary.NativeEndian.AppendUint64(nil, count)
		out = append(out, u32Bytes(offs)...)
		return append(out, payload...)
	}

	type secBuf struct {
		kind uint32
		data []byte
	}
	secs := []secBuf{
		{secMeta, metaBuf},
		{secStrings, offsetSection(uint64(len(e.strIdx)), e.strOffs, e.strBlob)},
		{secValues, offsetSection(uint64(len(e.valIdx)), e.valOffs, e.valBlob)},
		{secNodeIDs, i64Bytes(rs.allNodes)},
		{secNodeLabels, offsetSection(uint64(len(labelRefs)), labelOffs, u32Bytes(labelRefs))},
		{secNodeProps, offsetSection(uint64(len(propPairs)/2), propOffs, u32Bytes(propPairs))},
		{secRelIDs, i64Bytes(relIDs)},
		{secRelTypes, u32Bytes(typeRefs)},
		{secRelStarts, i64Bytes(starts)},
		{secRelEnds, i64Bytes(ends)},
		{secRelProps, offsetSection(uint64(len(relPropPairs)/2), relPropOffs, u32Bytes(relPropPairs))},
		{secAdjIDs, i64Bytes(adjIDs)},
		{secAdjMeta, offsetSection(uint64(len(adjWords)), adjOffs, u32Bytes(adjWords))},
		{secLabelMeta, append(binary.NativeEndian.AppendUint64(nil, uint64(len(rs.labels))), labelMeta...)},
		{secLabelIDs, i64Bytes(labelIDs)},
		{secIndexMeta, append(append(append(
			binary.NativeEndian.AppendUint64(nil, uint64(pairCount)),
			binary.NativeEndian.AppendUint64(nil, uint64(bucketCount))...), idxPairs...), idxBuckets...)},
		{secIndexIDs, i64Bytes(idxIDs)},
	}

	// Assemble: header, directory, aligned sections, CRCs.
	dirEnd := colHeaderSize + len(secs)*colDirEntrySize
	total := align8(dirEnd)
	offsets := make([]int, len(secs))
	for i, s := range secs {
		offsets[i] = total
		total = align8(total + len(s.data))
	}
	out := make([]byte, total)
	copy(out, colMagic)
	binary.NativeEndian.PutUint32(out[8:], colFormatVersion)
	binary.NativeEndian.PutUint32(out[12:], uint32(len(secs)))
	binary.NativeEndian.PutUint64(out[16:], colEndianProbe)
	binary.NativeEndian.PutUint64(out[24:], uint64(total))
	// out[32:36] headerCRC, filled below; out[36:40] reserved.
	for i, s := range secs {
		d := colHeaderSize + i*colDirEntrySize
		binary.NativeEndian.PutUint32(out[d:], s.kind)
		binary.NativeEndian.PutUint32(out[d+4:], crc32.Checksum(s.data, colCRC))
		binary.NativeEndian.PutUint64(out[d+8:], uint64(offsets[i]))
		binary.NativeEndian.PutUint64(out[d+16:], uint64(len(s.data)))
		copy(out[offsets[i]:], s.data)
	}
	binary.NativeEndian.PutUint32(out[32:], headerCRCOf(out[:dirEnd]))
	return out, nil
}

// headerCRCOf computes the header+directory checksum with the CRC
// field itself treated as zero.
func headerCRCOf(hdr []byte) uint32 {
	crc := crc32.Update(0, colCRC, hdr[:32])
	crc = crc32.Update(crc, colCRC, []byte{0, 0, 0, 0})
	return crc32.Update(crc, colCRC, hdr[36:])
}

// SaveFile writes the graph's current state to path as a columnar
// snapshot, creating or truncating it. It encodes from a pinned View, so
// concurrent writers are not blocked while it runs.
func (g *Graph) SaveFile(path string) error {
	data, err := g.View().MarshalColumnar(ColMeta{})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
