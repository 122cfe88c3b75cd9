package graph

// Columnar snapshot decoder: validates the sectioned layout and
// constructs a Graph whose first published epoch aliases the file's
// integer columns and string bytes directly. Every offset, reference,
// and ID is bounds-checked before use — a corrupt or adversarial file
// must produce a clean error, never a panic — and ID columns are
// checked ascending so the epoch invariants (sorted adjacency, sorted
// postings) hold by construction.
//
// The caller must keep the backing buffer alive (and, for mmap, the
// mapping established) for the lifetime of the returned Graph.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"maps"
	"math"
	"os"
	"sync/atomic"
	"time"
	"unsafe"
)

// colErrf wraps every decoder error with the format name.
func colErrf(format string, args ...any) error {
	return fmt.Errorf("graph: columnar: "+format, args...)
}

type colSection struct {
	crc uint32
	off uint64
	ln  uint64
}

// colStrings is the aliased string pool.
type colStrings struct {
	offs []uint32 // count+1, ascending
	blob []byte
}

func (s *colStrings) count() int { return len(s.offs) - 1 }

func (s *colStrings) at(i uint32) (string, error) {
	if int64(i) >= int64(s.count()) {
		return "", colErrf("string ref %d out of range (pool has %d)", i, s.count())
	}
	return s.get(i), nil
}

// get resolves a string ref that has already been validated in range.
func (s *colStrings) get(i uint32) string {
	start, end := s.offs[i], s.offs[i+1]
	if end == start {
		return ""
	}
	return unsafe.String(&s.blob[start], int(end-start))
}

// LoadFile reads a columnar snapshot from path. Every checksum is
// verified: LoadFile accepts arbitrary input.
func LoadFile(path string) (*Graph, error) {
	start := time.Now()
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	g, _, err := LoadColumnarBytes(data, ColLoadOptions{VerifyChecksums: true})
	if err != nil {
		return nil, err
	}
	RecordLoadNanos(time.Since(start).Nanoseconds())
	return g, nil
}

// LoadColumnarBytes reconstructs a graph from a columnar snapshot held
// in data (a heap buffer or an mmap'd region; see the package comment
// about buffer lifetime). The returned graph has its first epoch
// already published, sharing the buffer's integer columns and string
// bytes, so the first View pin costs nothing and startup never parses
// per-entity records.
//
// With opts.VerifyChecksums the section checksums are computed on a
// second goroutine while the sections decode — the decoder is safe on
// any bytes — and a checksum error wins over a decode error, since it
// says why the decode failed. Either way both are done when it
// returns.
func LoadColumnarBytes(data []byte, opts ColLoadOptions) (*Graph, *ColInfo, error) {
	data = ensureAligned(data)
	secs, err := parseColDirectory(data)
	if err != nil {
		return nil, nil, err
	}
	var crcErr chan error
	if opts.VerifyChecksums {
		crcErr = make(chan error, 1)
		go func() { crcErr <- verifySections(data, secs) }()
	}
	g, info, err := decodeColumnar(data, secs)
	if crcErr != nil {
		if cerr := <-crcErr; cerr != nil {
			return nil, nil, cerr
		}
	}
	if err != nil {
		return nil, nil, err
	}
	return g, info, nil
}

// verifySections checks every section's CRC.
func verifySections(data []byte, secs map[uint32]colSection) error {
	for kind, s := range secs {
		if got := crc32.Checksum(data[s.off:s.off+s.ln], colCRC); got != s.crc {
			return colErrf("section %d checksum mismatch (stored %#x, computed %#x)", kind, s.crc, got)
		}
	}
	return nil
}

// decodeColumnar builds the graph of a snapshot whose directory
// parseColDirectory has validated.
func decodeColumnar(data []byte, secs map[uint32]colSection) (*Graph, *ColInfo, error) {
	// META.
	mb, err := sectionBytes(data, secs, secMeta)
	if err != nil {
		return nil, nil, err
	}
	if len(mb) != colMetaSize {
		return nil, nil, colErrf("META section is %d bytes, want %d", len(mb), colMetaSize)
	}
	nextNode := int64(binary.NativeEndian.Uint64(mb[0:]))
	nextRel := int64(binary.NativeEndian.Uint64(mb[8:]))
	nodeCount64 := binary.NativeEndian.Uint64(mb[16:])
	relCount64 := binary.NativeEndian.Uint64(mb[24:])
	info := &ColInfo{
		Version: binary.NativeEndian.Uint64(mb[32:]),
		LastSeq: binary.NativeEndian.Uint64(mb[40:]),
		StoreID: binary.NativeEndian.Uint64(mb[48:]),
	}
	if nodeCount64 > uint64(len(data))/8 || relCount64 > uint64(len(data))/8 {
		return nil, nil, colErrf("entity counts exceed file size")
	}
	n, m := int(nodeCount64), int(relCount64)
	info.NodeCount, info.RelCount = n, m
	if nextNode < 1 || nextRel < 1 {
		return nil, nil, colErrf("invalid ID allocators (nextNode=%d nextRel=%d)", nextNode, nextRel)
	}
	if nextNode > int64(n)*colIDHeadroom+4096 || nextRel > int64(m)*colIDHeadroom+4096 {
		return nil, nil, colErrf("implausible ID allocators (nextNode=%d for %d nodes, nextRel=%d for %d rels)", nextNode, n, nextRel, m)
	}

	// String and value pools.
	strs, err := parseColStrings(data, secs)
	if err != nil {
		return nil, nil, err
	}
	vals, err := parseColValues(data, secs, strs)
	if err != nil {
		return nil, nil, err
	}

	// Fixed-width entity columns.
	nodeIDs, err := i64Column(data, secs, secNodeIDs, n)
	if err != nil {
		return nil, nil, err
	}
	relIDs, err := i64Column(data, secs, secRelIDs, m)
	if err != nil {
		return nil, nil, err
	}
	relStarts, err := i64Column(data, secs, secRelStarts, m)
	if err != nil {
		return nil, nil, err
	}
	relEnds, err := i64Column(data, secs, secRelEnds, m)
	if err != nil {
		return nil, nil, err
	}
	rb, err := sectionBytes(data, secs, secRelTypes)
	if err != nil {
		return nil, nil, err
	}
	if len(rb) != m*4 {
		return nil, nil, colErrf("REL_TYPES section is %d bytes, want %d", len(rb), m*4)
	}
	typeRefs := aliasU32(rb)

	nodeLabels, err := parseOffsetSection(data, secs, secNodeLabels, n)
	if err != nil {
		return nil, nil, err
	}
	nodeProps, err := parseOffsetSection(data, secs, secNodeProps, n)
	if err != nil {
		return nil, nil, err
	}
	relProps, err := parseOffsetSection(data, secs, secRelProps, m)
	if err != nil {
		return nil, nil, err
	}
	adjMeta, err := parseOffsetSection(data, secs, secAdjMeta, n)
	if err != nil {
		return nil, nil, err
	}
	ab, err := sectionBytes(data, secs, secAdjIDs)
	if err != nil {
		return nil, nil, err
	}
	if len(ab)%8 != 0 {
		return nil, nil, colErrf("ADJ_IDS length %d not a multiple of 8", len(ab))
	}
	adjIDs := aliasI64(ab)

	// Assemble the graph around a lazily materialized first epoch. The
	// entity tables start as cold pages of nil slots that fill in on
	// demand (see colLazy), so startup cost is validation plus the
	// pointer-free epoch skeleton — no per-entity struct construction,
	// now or at the first write: writes touch the epoch page by page.
	if nodeCount64 > math.MaxInt32 || relCount64 > math.MaxInt32 {
		return nil, nil, colErrf("entity counts exceed row-index limits")
	}
	rs := &readState{
		version:   info.Version,
		nodeCount: n,
		relCount:  m,
		nextNode:  nextNode,
		nextRel:   nextRel,
		allNodes:  nodeIDs,

		relTypeCount: make(map[string]int),
	}
	lz := &colLazy{
		strs: strs, vals: vals,
		nodeProps: nodeProps, relProps: relProps,
		nodeIDs: nodeIDs, relIDs: relIDs,
		relStarts: relStarts, relEnds: relEnds, typeRefs: typeRefs,
		nodeLabels: nodeLabels,
	}

	// Relationship rows: IDs strictly ascending and in range, types
	// resolvable. The row index gives O(1) presence checks without a
	// materialized table.
	lz.relRow = make([]int32, nextRel)
	var prevRel int64
	for i := 0; i < m; i++ {
		id := relIDs[i]
		if id < 1 || id >= nextRel {
			return nil, nil, colErrf("relationship ID %d outside [1,%d)", id, nextRel)
		}
		if i > 0 && id <= prevRel {
			return nil, nil, colErrf("relationship IDs not strictly ascending at %d", id)
		}
		prevRel = id
		lz.relRow[id] = int32(i + 1)
		typ, err := strs.at(typeRefs[i])
		if err != nil {
			return nil, nil, err
		}
		rs.relTypeCount[typ]++
	}

	// Node rows and labels. Label slices are carved eagerly — they are
	// one string header per label occurrence — so lazy materialization
	// only ever builds the property slice.
	lz.nodeRow = make([]int32, nextNode)
	labelStrings := make([]string, nodeLabels.total)
	var prevNode int64
	for i := 0; i < n; i++ {
		id := nodeIDs[i]
		if id < 1 || id >= nextNode {
			return nil, nil, colErrf("node ID %d outside [1,%d)", id, nextNode)
		}
		if i > 0 && id <= prevNode {
			return nil, nil, colErrf("node IDs not strictly ascending at %d", id)
		}
		prevNode = id
		lz.nodeRow[id] = int32(i + 1)
		lo, hi := nodeLabels.offs[i], nodeLabels.offs[i+1]
		for j := lo; j < hi; j++ {
			s, err := strs.at(nodeLabels.payload[j])
			if err != nil {
				return nil, nil, err
			}
			labelStrings[j] = s
			if j > lo && s < labelStrings[j-1] {
				return nil, nil, colErrf("node %d labels not sorted", id)
			}
		}
	}
	lz.labelStrings = labelStrings

	// Property references are validated up front so that on-demand
	// materialization can never fail.
	if err := validatePropRefs("node", nodeProps, strs, vals); err != nil {
		return nil, nil, err
	}
	if err := validatePropRefs("relationship", relProps, strs, vals); err != nil {
		return nil, nil, err
	}

	// Endpoint validation against the node row index.
	for i := 0; i < m; i++ {
		if !lz.nodePresent(relStarts[i]) || !lz.nodePresent(relEnds[i]) {
			return nil, nil, colErrf("relationship %d references missing endpoint (%d->%d)", relIDs[i], relStarts[i], relEnds[i])
		}
	}

	rs.nodes = coldTable[*Node](nextNode)
	rs.rels = coldTable[*Relationship](nextRel)
	rs.lazy = lz

	// Adjacency: the epoch aliases the flat column directly.
	if err := buildColAdjacency(rs, lz, nodeIDs, adjMeta, adjIDs, strs); err != nil {
		return nil, nil, err
	}

	// Label postings.
	if err := buildColLabels(rs, lz, data, secs, strs); err != nil {
		return nil, nil, err
	}

	// Property-index postings.
	if err := buildColIndexes(rs, lz, data, secs, strs); err != nil {
		return nil, nil, err
	}

	rs.relTypes = relTypesLocked(rs.relTypeCount)
	g := New()
	g.nextNode, g.nextRel = nextNode, nextRel
	g.relTypeCount = maps.Clone(rs.relTypeCount)
	g.version.Store(info.Version)
	g.published.Store(rs)
	g.snapshotPublishes.Add(1)
	return g, info, nil
}

// colLazy drives on-demand materialization of the entities of an epoch
// loaded from a columnar snapshot. The epoch's entity tables start as
// cold pages of nil slots; the first reader of a slot builds the Node
// or Relationship from the aliased columns and installs it with a CAS,
// so concurrent readers converge on one canonical pointer and a process
// never pays construction for entities nothing touches. Later epochs
// share the cold pages no write fell in; a write clones a page through
// these materializers (tableEdit.copyPage), never by a plain read, and
// the clone is warm. Every column reference is validated at load time,
// which is why the materializers have no error paths.
type colLazy struct {
	strs         *colStrings
	vals         []Value
	nodeProps    *colOffsets
	relProps     *colOffsets
	nodeIDs      []int64
	relIDs       []int64
	relStarts    []int64
	relEnds      []int64
	typeRefs     []uint32
	nodeLabels   *colOffsets
	labelStrings []string
	nodeRow      []int32 // node ID -> column row + 1; 0 = absent
	relRow       []int32 // rel ID -> column row + 1; 0 = absent
}

// nodePresent reports whether the snapshot holds a node with the ID.
func (lz *colLazy) nodePresent(id int64) bool {
	return id >= 0 && id < int64(len(lz.nodeRow)) && lz.nodeRow[id] != 0
}

// node returns the node of a cold slot (slot addresses the slot of id),
// materializing it on first access. Concurrent callers may build
// duplicates; the CAS picks one winner, so pointer identity is stable
// across readers.
func (lz *colLazy) node(at **Node, id int64) *Node {
	slot := (*unsafe.Pointer)(unsafe.Pointer(at))
	if p := atomic.LoadPointer(slot); p != nil {
		return (*Node)(p)
	}
	row := lz.nodeRow[id]
	if row == 0 {
		return nil
	}
	i := int(row) - 1
	lo, hi := lz.nodeLabels.offs[i], lz.nodeLabels.offs[i+1]
	n := &Node{ID: id, Labels: lz.labelStrings[lo:hi:hi], Props: lz.propsOf(lz.nodeProps, i)}
	if atomic.CompareAndSwapPointer(slot, nil, unsafe.Pointer(n)) {
		return n
	}
	return (*Node)(atomic.LoadPointer(slot))
}

// rel is the relationship counterpart of node.
func (lz *colLazy) rel(at **Relationship, id int64) *Relationship {
	slot := (*unsafe.Pointer)(unsafe.Pointer(at))
	if p := atomic.LoadPointer(slot); p != nil {
		return (*Relationship)(p)
	}
	row := lz.relRow[id]
	if row == 0 {
		return nil
	}
	i := int(row) - 1
	r := &Relationship{
		ID:      id,
		Type:    lz.strs.get(lz.typeRefs[i]),
		StartID: lz.relStarts[i],
		EndID:   lz.relEnds[i],
		Props:   lz.propsOf(lz.relProps, i),
	}
	if atomic.CompareAndSwapPointer(slot, nil, unsafe.Pointer(r)) {
		return r
	}
	return (*Relationship)(atomic.LoadPointer(slot))
}

// propsOf materializes entity row i's properties as one exact-size
// slice, nil when the row has none. Values come pre-decoded from the
// shared pool, and the encoder writes each row's keys sorted, so a
// property occurrence costs one slice element. A row that breaks the
// Props invariants (a snapshot from another encoder) goes through
// PropsOf instead: last duplicate wins, nil values drop out.
func (lz *colLazy) propsOf(tbl *colOffsets, i int) Props {
	lo, hi := tbl.offs[i], tbl.offs[i+1]
	if lo == hi {
		return nil
	}
	props := make(Props, 0, hi-lo)
	for p := lo; p < hi; p++ {
		k, v := lz.strs.get(tbl.payload[2*p]), lz.vals[tbl.payload[2*p+1]]
		if v == nil || (len(props) > 0 && props[len(props)-1].Key >= k) {
			return lz.propsMap(tbl, lo, hi)
		}
		props = append(props, Prop{k, v})
	}
	return props
}

// propsMap is propsOf's path for rows that are unsorted, repeat a key
// or hold a nil value.
func (lz *colLazy) propsMap(tbl *colOffsets, lo, hi uint32) Props {
	m := make(map[string]Value, hi-lo)
	for p := lo; p < hi; p++ {
		m[lz.strs.get(tbl.payload[2*p])] = lz.vals[tbl.payload[2*p+1]]
	}
	return PropsOf(m)
}

// validatePropRefs bounds-checks every (keyRef, valRef) pair of a
// property table against the string and value pools.
func validatePropRefs(what string, tbl *colOffsets, strs *colStrings, vals []Value) error {
	for p := 0; p < int(tbl.total); p++ {
		if kr := tbl.payload[2*p]; int64(kr) >= int64(strs.count()) {
			return colErrf("%s property key ref %d out of range (pool has %d)", what, kr, strs.count())
		}
		if vr := tbl.payload[2*p+1]; int64(vr) >= int64(len(vals)) {
			return colErrf("%s value ref %d out of range (pool has %d)", what, vr, len(vals))
		}
	}
	return nil
}

// parseColDirectory validates the header and section directory.
func parseColDirectory(data []byte) (map[uint32]colSection, error) {
	if !SniffColumnar(data) {
		return nil, colErrf("bad magic: not an IYPCOL1 snapshot")
	}
	if len(data) < colHeaderSize {
		return nil, colErrf("file too short for header (%d bytes)", len(data))
	}
	if v := binary.NativeEndian.Uint32(data[8:]); v != colFormatVersion {
		return nil, colErrf("unsupported format version %d", v)
	}
	if probe := binary.NativeEndian.Uint64(data[16:]); probe != colEndianProbe {
		return nil, colErrf("byte-order mismatch or corrupt header (probe %#x)", probe)
	}
	if fs := binary.NativeEndian.Uint64(data[24:]); fs != uint64(len(data)) {
		return nil, colErrf("file size mismatch: header says %d, have %d", fs, len(data))
	}
	count := binary.NativeEndian.Uint32(data[12:])
	if count == 0 || count > colMaxSections {
		return nil, colErrf("implausible section count %d", count)
	}
	dirEnd := colHeaderSize + int(count)*colDirEntrySize
	if dirEnd > len(data) {
		return nil, colErrf("directory (%d sections) exceeds file", count)
	}
	if want, got := binary.NativeEndian.Uint32(data[32:]), headerCRCOf(data[:dirEnd]); want != got {
		return nil, colErrf("header checksum mismatch (stored %#x, computed %#x)", want, got)
	}
	secs := make(map[uint32]colSection, count)
	for i := 0; i < int(count); i++ {
		d := colHeaderSize + i*colDirEntrySize
		kind := binary.NativeEndian.Uint32(data[d:])
		s := colSection{
			crc: binary.NativeEndian.Uint32(data[d+4:]),
			off: binary.NativeEndian.Uint64(data[d+8:]),
			ln:  binary.NativeEndian.Uint64(data[d+16:]),
		}
		if s.off%8 != 0 {
			return nil, colErrf("section %d offset %d not 8-aligned", kind, s.off)
		}
		if s.off < uint64(dirEnd) || s.off > uint64(len(data)) || s.ln > uint64(len(data))-s.off {
			return nil, colErrf("section %d span [%d,+%d) outside file", kind, s.off, s.ln)
		}
		if _, dup := secs[kind]; dup {
			return nil, colErrf("duplicate section %d", kind)
		}
		secs[kind] = s
	}
	for _, kind := range colRequiredSections {
		if _, ok := secs[kind]; !ok {
			return nil, colErrf("missing required section %d", kind)
		}
	}
	return secs, nil
}

func sectionBytes(data []byte, secs map[uint32]colSection, kind uint32) ([]byte, error) {
	s, ok := secs[kind]
	if !ok {
		return nil, colErrf("missing required section %d", kind)
	}
	return data[s.off : s.off+s.ln : s.off+s.ln], nil
}

// i64Column returns an aliased int64 section validated to hold exactly
// count entries.
func i64Column(data []byte, secs map[uint32]colSection, kind uint32, count int) ([]int64, error) {
	b, err := sectionBytes(data, secs, kind)
	if err != nil {
		return nil, err
	}
	if len(b) != count*8 {
		return nil, colErrf("section %d is %d bytes, want %d entries", kind, len(b), count)
	}
	return aliasI64(b), nil
}

func parseColStrings(data []byte, secs map[uint32]colSection) (*colStrings, error) {
	b, err := sectionBytes(data, secs, secStrings)
	if err != nil {
		return nil, err
	}
	if len(b) < 8 {
		return nil, colErrf("STRINGS section too short")
	}
	count := binary.NativeEndian.Uint64(b)
	if count > uint64(len(b)-8)/4 {
		return nil, colErrf("STRINGS count %d exceeds section", count)
	}
	offsEnd := 8 + (int(count)+1)*4
	if offsEnd > len(b) {
		return nil, colErrf("STRINGS offset table exceeds section")
	}
	offs := aliasU32(b[8:offsEnd])
	blob := b[offsEnd:]
	if offs[0] != 0 || offs[count] != uint32(len(blob)) {
		return nil, colErrf("STRINGS offsets do not span blob")
	}
	for i := 1; i <= int(count); i++ {
		if offs[i] < offs[i-1] {
			return nil, colErrf("STRINGS offsets not ascending at %d", i)
		}
	}
	return &colStrings{offs: offs, blob: blob}, nil
}

// parseColValues eagerly decodes the value pool: each distinct value is
// materialized exactly once and shared by every property occurrence
// (values are immutable by convention throughout the query engine).
func parseColValues(data []byte, secs map[uint32]colSection, strs *colStrings) ([]Value, error) {
	b, err := sectionBytes(data, secs, secValues)
	if err != nil {
		return nil, err
	}
	if len(b) < 8 {
		return nil, colErrf("VALUES section too short")
	}
	count := binary.NativeEndian.Uint64(b)
	if count > uint64(len(b)-8)/4 {
		return nil, colErrf("VALUES count %d exceeds section", count)
	}
	offsEnd := 8 + (int(count)+1)*4
	if offsEnd > len(b) {
		return nil, colErrf("VALUES offset table exceeds section")
	}
	offs := aliasU32(b[8:offsEnd])
	blob := b[offsEnd:]
	if offs[0] != 0 || offs[count] != uint32(len(blob)) {
		return nil, colErrf("VALUES offsets do not span blob")
	}
	// Validate the whole offset table before slicing anything: a
	// locally ascending pair can still point past the blob when a
	// later entry descends back to it.
	for i := 1; i <= int(count); i++ {
		if offs[i] < offs[i-1] {
			return nil, colErrf("VALUES offsets not ascending at %d", i)
		}
	}
	vals := make([]Value, count)
	for i := 0; i < int(count); i++ {
		v, rest, err := decodeColValue(blob[offs[i]:offs[i+1]], strs, 0)
		if err != nil {
			return nil, fmt.Errorf("value %d: %w", i, err)
		}
		if len(rest) != 0 {
			return nil, colErrf("value %d has %d trailing bytes", i, len(rest))
		}
		vals[i] = v
	}
	return vals, nil
}

func decodeColValue(b []byte, strs *colStrings, depth int) (Value, []byte, error) {
	if depth > colMaxValueDepth {
		return nil, nil, colErrf("value nesting exceeds %d", colMaxValueDepth)
	}
	if len(b) < 1 {
		return nil, nil, colErrf("truncated value")
	}
	tag := b[0]
	b = b[1:]
	switch tag {
	case valNil:
		return nil, b, nil
	case valFalse:
		return false, b, nil
	case valTrue:
		return true, b, nil
	case valInt:
		if len(b) < 8 {
			return nil, nil, colErrf("truncated int value")
		}
		return int64(binary.NativeEndian.Uint64(b)), b[8:], nil
	case valFloat:
		if len(b) < 8 {
			return nil, nil, colErrf("truncated float value")
		}
		return math.Float64frombits(binary.NativeEndian.Uint64(b)), b[8:], nil
	case valString:
		if len(b) < 4 {
			return nil, nil, colErrf("truncated string value")
		}
		s, err := strs.at(binary.NativeEndian.Uint32(b))
		if err != nil {
			return nil, nil, err
		}
		return s, b[4:], nil
	case valList:
		if len(b) < 4 {
			return nil, nil, colErrf("truncated list value")
		}
		count := binary.NativeEndian.Uint32(b)
		b = b[4:]
		if uint64(count) > uint64(len(b)) { // every element is ≥ 1 byte
			return nil, nil, colErrf("list count %d exceeds payload", count)
		}
		out := make([]Value, 0, count)
		for i := uint32(0); i < count; i++ {
			var v Value
			var err error
			if v, b, err = decodeColValue(b, strs, depth+1); err != nil {
				return nil, nil, err
			}
			out = append(out, v)
		}
		return out, b, nil
	case valMap:
		if len(b) < 4 {
			return nil, nil, colErrf("truncated map value")
		}
		count := binary.NativeEndian.Uint32(b)
		b = b[4:]
		if uint64(count)*5 > uint64(len(b)) { // every entry is ≥ 5 bytes
			return nil, nil, colErrf("map count %d exceeds payload", count)
		}
		out := make(map[string]Value, count)
		for i := uint32(0); i < count; i++ {
			if len(b) < 4 {
				return nil, nil, colErrf("truncated map key")
			}
			k, err := strs.at(binary.NativeEndian.Uint32(b))
			if err != nil {
				return nil, nil, err
			}
			b = b[4:]
			var v Value
			if v, b, err = decodeColValue(b, strs, depth+1); err != nil {
				return nil, nil, err
			}
			out[k] = v
		}
		return out, b, nil
	default:
		return nil, nil, colErrf("unknown value tag %d", tag)
	}
}

// colOffsets is a parsed offset-table section: count entries of
// payload indexed by n+1 ascending offsets.
type colOffsets struct {
	offs    []uint32 // n+1, ascending, offs[n] == total
	payload []uint32
	total   uint32
}

// parseOffsetSection parses the shared u64-count + offsets + u32
// payload shape used by the label/prop/adjacency metadata sections.
// For property sections the count is pairs (payload is 2 words per
// pair); offsets are validated against the count unit, and the payload
// is validated to hold exactly what the offsets address.
func parseOffsetSection(data []byte, secs map[uint32]colSection, kind uint32, n int) (*colOffsets, error) {
	b, err := sectionBytes(data, secs, kind)
	if err != nil {
		return nil, err
	}
	if len(b) < 8 {
		return nil, colErrf("section %d too short", kind)
	}
	count := binary.NativeEndian.Uint64(b)
	offsEnd := 8 + (n+1)*4
	if offsEnd > len(b) {
		return nil, colErrf("section %d offset table exceeds section", kind)
	}
	payloadWords := (len(b) - offsEnd) / 4
	if (len(b)-offsEnd)%4 != 0 {
		return nil, colErrf("section %d payload not word-aligned", kind)
	}
	var unitsPerEntry uint64 = 1
	if kind == secNodeProps || kind == secRelProps {
		unitsPerEntry = 2 // keyRef, valRef
	}
	if count*unitsPerEntry != uint64(payloadWords) {
		return nil, colErrf("section %d count %d does not match payload %d words", kind, count, payloadWords)
	}
	offs := aliasU32(b[8:offsEnd])
	if offs[0] != 0 || uint64(offs[n]) != count {
		return nil, colErrf("section %d offsets do not span payload", kind)
	}
	for i := 1; i <= n; i++ {
		if offs[i] < offs[i-1] {
			return nil, colErrf("section %d offsets not ascending at %d", kind, i)
		}
	}
	return &colOffsets{offs: offs, payload: aliasU32(b[offsEnd:]), total: uint32(count)}, nil
}

// buildColAdjacency decodes per-node adjacency spans. Epoch lists
// alias the flat column directly — immutable forever, pointer-free, so
// the GC never scans them. A write copies the entries it touches
// (Graph.adjForWriteLocked).
func buildColAdjacency(rs *readState, lz *colLazy, nodeIDs []int64, adjMeta *colOffsets, adjIDs []int64, strs *colStrings) error {
	adjCount := uint32(len(adjIDs))
	words := adjMeta.payload

	// First pass: bucket totals for the backing allocation.
	var bucketTotal int
	for i := range nodeIDs {
		w := words[adjMeta.offs[i]:adjMeta.offs[i+1]]
		for dir := 0; dir < 2; dir++ {
			if len(w) < 3 {
				return colErrf("node %d adjacency metadata truncated", nodeIDs[i])
			}
			nb := int(w[2])
			bucketTotal += nb
			need := 3 + nb*3
			if len(w) < need {
				return colErrf("node %d adjacency buckets truncated", nodeIDs[i])
			}
			w = w[need:]
		}
		if len(w) != 0 {
			return colErrf("node %d adjacency metadata has %d trailing words", nodeIDs[i], len(w))
		}
	}

	rs.adj = newTable[nodeAdj](rs.nextNode)
	buckets := make([]typeBucket, bucketTotal)
	var bPos int

	span := func(start, ln uint32) ([]int64, error) {
		if start > adjCount || ln > adjCount-start {
			return nil, colErrf("adjacency span [%d,+%d) outside column of %d", start, ln, adjCount)
		}
		s := adjIDs[start : start+ln : start+ln]
		var prev int64
		for i, id := range s {
			if id < 1 || id >= rs.nextRel || lz.relRow[id] == 0 {
				return nil, colErrf("adjacency references missing relationship %d", id)
			}
			if i > 0 && id <= prev {
				return nil, colErrf("adjacency span not strictly ascending at %d", id)
			}
			prev = id
		}
		return s, nil
	}

	decodeDir := func(w []uint32) (dirAdj, []uint32, error) {
		all, err := span(w[0], w[1])
		if err != nil {
			return dirAdj{}, nil, err
		}
		nb := int(w[2])
		w = w[3:]
		d := dirAdj{all: all}
		if nb > 0 {
			d.byType = buckets[bPos : bPos : bPos+nb]
			bPos += nb
		}
		sum := 0
		for i := 0; i < nb; i++ {
			typ, err := strs.at(w[0])
			if err != nil {
				return dirAdj{}, nil, err
			}
			ids, err := span(w[1], w[2])
			if err != nil {
				return dirAdj{}, nil, err
			}
			sum += len(ids)
			d.byType = append(d.byType, typeBucket{typ: typ, ids: ids})
			w = w[3:]
		}
		if sum != len(all) {
			return dirAdj{}, nil, colErrf("adjacency buckets hold %d ids, full list holds %d", sum, len(all))
		}
		return d, w, nil
	}

	for i, id := range nodeIDs {
		w := words[adjMeta.offs[i]:adjMeta.offs[i+1]]
		out, w, err := decodeDir(w)
		if err != nil {
			return fmt.Errorf("node %d out-adjacency: %w", id, err)
		}
		in, _, err := decodeDir(w)
		if err != nil {
			return fmt.Errorf("node %d in-adjacency: %w", id, err)
		}
		*rs.adj.at(id) = nodeAdj{out: out, in: in}
	}
	return nil
}

// buildColLabels decodes the label postings: the epoch gets aliased
// sorted slices.
func buildColLabels(rs *readState, lz *colLazy, data []byte, secs map[uint32]colSection, strs *colStrings) error {
	b, err := sectionBytes(data, secs, secLabelMeta)
	if err != nil {
		return err
	}
	if len(b) < 8 {
		return colErrf("LABEL_META section too short")
	}
	count := binary.NativeEndian.Uint64(b)
	if count > uint64(len(b)-8)/16 || uint64(len(b)) != 8+count*16 {
		return colErrf("LABEL_META count %d does not match section size %d", count, len(b))
	}
	ib, err := sectionBytes(data, secs, secLabelIDs)
	if err != nil {
		return err
	}
	if len(ib)%8 != 0 {
		return colErrf("LABEL_IDS length %d not a multiple of 8", len(ib))
	}
	ids := aliasI64(ib)
	rs.byLabel = make(map[string][]int64, count)
	rs.labels = make([]string, 0, count)
	var prevLabel string
	for i := 0; i < int(count); i++ {
		d := b[8+i*16:]
		label, err := strs.at(binary.NativeEndian.Uint32(d))
		if err != nil {
			return err
		}
		if i > 0 && label <= prevLabel {
			return colErrf("label table not sorted at %q", label)
		}
		prevLabel = label
		ln := binary.NativeEndian.Uint32(d[4:])
		start := binary.NativeEndian.Uint64(d[8:])
		if start > uint64(len(ids)) || uint64(ln) > uint64(len(ids))-start {
			return colErrf("label %q posting span outside column", label)
		}
		span := ids[start : start+uint64(ln) : start+uint64(ln)]
		var prev int64
		for j, id := range span {
			if !lz.nodePresent(id) {
				return colErrf("label %q posting references missing node %d", label, id)
			}
			if j > 0 && id <= prev {
				return colErrf("label %q posting not strictly ascending", label)
			}
			prev = id
		}
		rs.byLabel[label] = span
		rs.labels = append(rs.labels, label)
	}
	return nil
}

// buildColIndexes decodes the property-index postings: aliased sorted
// buckets for the epoch. A write clones the buckets it touches
// (Graph.touchBucketLocked).
func buildColIndexes(rs *readState, lz *colLazy, data []byte, secs map[uint32]colSection, strs *colStrings) error {
	b, err := sectionBytes(data, secs, secIndexMeta)
	if err != nil {
		return err
	}
	if len(b) < 16 {
		return colErrf("INDEX_META section too short")
	}
	pairCount := binary.NativeEndian.Uint64(b)
	bucketCount := binary.NativeEndian.Uint64(b[8:])
	if pairCount > uint64(len(b))/16 || bucketCount > uint64(len(b))/16 ||
		uint64(len(b)) != 16+pairCount*16+bucketCount*16 {
		return colErrf("INDEX_META counts (%d pairs, %d buckets) do not match section size %d", pairCount, bucketCount, len(b))
	}
	ib, err := sectionBytes(data, secs, secIndexIDs)
	if err != nil {
		return err
	}
	if len(ib)%8 != 0 {
		return colErrf("INDEX_IDS length %d not a multiple of 8", len(ib))
	}
	ids := aliasI64(ib)

	rs.propIndex = make(map[indexPair]map[string][]int64, pairCount)
	pairs := b[16 : 16+pairCount*16]
	bucketsRaw := b[16+pairCount*16:]
	for i := 0; i < int(pairCount); i++ {
		d := pairs[i*16:]
		label, err := strs.at(binary.NativeEndian.Uint32(d))
		if err != nil {
			return err
		}
		prop, err := strs.at(binary.NativeEndian.Uint32(d[4:]))
		if err != nil {
			return err
		}
		bStart := binary.NativeEndian.Uint32(d[8:])
		bLen := binary.NativeEndian.Uint32(d[12:])
		if uint64(bStart) > bucketCount || uint64(bLen) > bucketCount-uint64(bStart) {
			return colErrf("index (%s,%s) bucket span outside table", label, prop)
		}
		epVal := make(map[string][]int64, bLen)
		for j := bStart; j < bStart+bLen; j++ {
			e := bucketsRaw[j*16:]
			key, err := strs.at(binary.NativeEndian.Uint32(e))
			if err != nil {
				return err
			}
			ln := binary.NativeEndian.Uint32(e[4:])
			start := binary.NativeEndian.Uint64(e[8:])
			if start > uint64(len(ids)) || uint64(ln) > uint64(len(ids))-start {
				return colErrf("index (%s,%s) posting span outside column", label, prop)
			}
			span := ids[start : start+uint64(ln) : start+uint64(ln)]
			var prev int64
			for k, id := range span {
				if !lz.nodePresent(id) {
					return colErrf("index (%s,%s) posting references missing node %d", label, prop, id)
				}
				if k > 0 && id <= prev {
					return colErrf("index (%s,%s) posting not strictly ascending", label, prop)
				}
				prev = id
			}
			epVal[key] = span
		}
		rs.propIndex[indexPair{label, prop}] = epVal
	}
	return nil
}
