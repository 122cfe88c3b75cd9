// Package persist is the durability tier: it pairs a columnar base
// snapshot (graph/colfile.go) with a write-ahead log so a server
// started with -data-dir survives crashes — startup mmaps the base,
// replays the WAL tail through graph.ApplyMutation, and every
// subsequent acknowledged write is journaled before the graph mutex is
// released. Periodic checkpoints rewrite the base from a pinned View
// and drop the absorbed WAL prefix. See docs/PERSISTENCE.md.
package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"chatiyp/internal/graph"
)

// FsyncPolicy selects when the WAL is flushed to stable storage.
// Every policy issues the write syscall before the mutation is
// acknowledged, so journaled writes survive a process crash; the
// policies differ in what survives an OS or power failure.
type FsyncPolicy int

// Fsync policies.
const (
	// FsyncAlways fsyncs after every record: acknowledged writes
	// survive power loss. Slowest.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval fsyncs on a timer (Store.Options.FsyncInterval):
	// a power failure can lose at most one interval of acknowledged
	// writes.
	FsyncInterval
	// FsyncNever leaves syncing to the kernel: process crashes lose
	// nothing, power loss may lose the page cache.
	FsyncNever
)

// ParseFsyncPolicy parses the -fsync flag values.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	default:
		return 0, fmt.Errorf("persist: unknown fsync policy %q (want always, interval, or never)", s)
	}
}

const (
	walMagic      = "IYPWAL1\n"
	walVersion    = 1
	walHeaderSize = 24
	// walMaxRecord bounds a single record's payload; a frame length
	// beyond it is corruption, not data.
	walMaxRecord = 1 << 28
	walFrameSize = 8 // u32 length + u32 CRC
)

var walCRC = crc32.MakeTable(crc32.Castagnoli)

// ErrWALCorrupt marks unrecoverable journal damage: a record that
// fails its checksum with valid-looking data after it. A torn tail
// (truncated final record with nothing but the tear beyond it) is NOT
// corruption — it is the expected shape of a crash mid-append and is
// silently truncated; committed records are never dropped.
var ErrWALCorrupt = errors.New("persist: WAL corrupt")

// walRecord is one decoded journal entry.
type walRecord struct {
	seq uint64
	mut graph.Mutation
}

// WAL is an append-only, checksummed mutation journal. Appends are
// serialized by an internal mutex (callers already hold the graph
// mutex in apply order, so records land in version order).
type WAL struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	storeID uint64
	policy  FsyncPolicy
	nextSeq uint64
	size    int64
	dirty   bool // written but not fsynced
	scratch []byte
}

// openWAL opens (or creates) the journal at path, replaying its
// header and returning every intact record. A torn final record is
// truncated away; mid-file corruption returns ErrWALCorrupt.
func openWAL(path string, storeID uint64, policy FsyncPolicy) (*WAL, []walRecord, error) {
	w := &WAL{path: path, storeID: storeID, policy: policy, nextSeq: 1}
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		if err := w.create(); err != nil {
			return nil, nil, err
		}
		return w, nil, nil
	}
	if err != nil {
		return nil, nil, err
	}
	records, validEnd, err := scanWAL(data, storeID)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, err
	}
	if validEnd < int64(len(data)) {
		// Torn tail: drop the partial record so the next append starts
		// on a clean frame boundary.
		if err := f.Truncate(validEnd); err != nil {
			f.Close()
			return nil, nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	if _, err := f.Seek(validEnd, 0); err != nil {
		f.Close()
		return nil, nil, err
	}
	w.f, w.size = f, validEnd
	if n := len(records); n > 0 {
		w.nextSeq = records[n-1].seq + 1
	}
	return w, records, nil
}

func (w *WAL) create() error {
	f, err := os.OpenFile(w.path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	hdr := walHeader(w.storeID)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	w.f, w.size = f, int64(len(hdr))
	return nil
}

func walHeader(storeID uint64) []byte {
	hdr := make([]byte, walHeaderSize)
	copy(hdr, walMagic)
	binary.NativeEndian.PutUint32(hdr[8:], walVersion)
	binary.NativeEndian.PutUint64(hdr[16:], storeID)
	return hdr
}

// scanWAL validates the header and walks records until EOF, a torn
// tail, or corruption. It returns the intact records and the offset
// the valid prefix ends at. storeID 0 skips the identity check.
func scanWAL(data []byte, storeID uint64) ([]walRecord, int64, error) {
	if len(data) < walHeaderSize {
		return nil, 0, fmt.Errorf("%w: file shorter than header", ErrWALCorrupt)
	}
	if string(data[:8]) != walMagic {
		return nil, 0, fmt.Errorf("%w: bad magic", ErrWALCorrupt)
	}
	if v := binary.NativeEndian.Uint32(data[8:]); v != walVersion {
		return nil, 0, fmt.Errorf("persist: unsupported WAL version %d", v)
	}
	if id := binary.NativeEndian.Uint64(data[16:]); storeID != 0 && id != storeID {
		return nil, 0, fmt.Errorf("persist: WAL belongs to store %#x, not %#x", id, storeID)
	}
	var records []walRecord
	off := int64(walHeaderSize)
	for off < int64(len(data)) {
		rest := data[off:]
		if len(rest) < walFrameSize {
			return records, off, nil // torn frame header
		}
		ln := binary.NativeEndian.Uint32(rest)
		crc := binary.NativeEndian.Uint32(rest[4:])
		if ln > walMaxRecord {
			return nil, 0, fmt.Errorf("%w: record length %d at offset %d", ErrWALCorrupt, ln, off)
		}
		if int64(len(rest)) < walFrameSize+int64(ln) {
			return records, off, nil // torn payload
		}
		payload := rest[walFrameSize : walFrameSize+int64(ln)]
		if crc32.Checksum(payload, walCRC) != crc {
			// A checksum failure at the tail is a torn write; one with
			// data after it means committed records may follow damage,
			// which must never be silently dropped.
			if allZero(rest[walFrameSize+int64(ln):]) {
				return records, off, nil
			}
			return nil, 0, fmt.Errorf("%w: checksum mismatch at offset %d with records after it", ErrWALCorrupt, off)
		}
		rec, err := decodeWALRecord(payload)
		if err != nil {
			return nil, 0, fmt.Errorf("%w: offset %d: %v", ErrWALCorrupt, off, err)
		}
		if n := len(records); n > 0 && rec.seq != records[n-1].seq+1 {
			return nil, 0, fmt.Errorf("%w: sequence jump %d -> %d at offset %d", ErrWALCorrupt, records[n-1].seq, rec.seq, off)
		}
		records = append(records, rec)
		off += walFrameSize + int64(ln)
	}
	return records, off, nil
}

func allZero(b []byte) bool {
	for _, x := range b {
		if x != 0 {
			return false
		}
	}
	return true
}

// Append journals one mutation, assigning it the next sequence
// number. The record reaches the kernel before Append returns (so an
// acknowledged write survives a process crash under every policy);
// FsyncAlways additionally forces it to stable storage.
func (w *WAL) Append(m graph.Mutation) (seq uint64, n int, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return 0, 0, errors.New("persist: WAL closed")
	}
	seq = w.nextSeq
	payload, err := encodeWALRecord(w.scratch[:0], seq, m)
	if err != nil {
		return 0, 0, err
	}
	w.scratch = payload[:0]
	frame := make([]byte, walFrameSize, walFrameSize+len(payload))
	binary.NativeEndian.PutUint32(frame, uint32(len(payload)))
	binary.NativeEndian.PutUint32(frame[4:], crc32.Checksum(payload, walCRC))
	frame = append(frame, payload...)
	if _, err := w.f.Write(frame); err != nil {
		return 0, 0, err
	}
	w.nextSeq++
	w.size += int64(len(frame))
	w.dirty = true
	if w.policy == FsyncAlways {
		if err := w.syncLocked(); err != nil {
			return 0, 0, err
		}
	}
	return seq, len(frame), nil
}

// Sync forces journaled records to stable storage (the FsyncInterval
// timer and Store.Close call it).
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.syncLocked()
}

func (w *WAL) syncLocked() error {
	if !w.dirty || w.f == nil {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.dirty = false
	return nil
}

// Size returns the journal's current byte size (header included).
func (w *WAL) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// NextSeq returns the sequence number the next append will get.
func (w *WAL) NextSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextSeq
}

// setNextSeq aligns the sequence counter after replay against a base
// snapshot that absorbed more records than the journal holds.
func (w *WAL) setNextSeq(seq uint64) {
	w.mu.Lock()
	if seq > w.nextSeq {
		w.nextSeq = seq
	}
	w.mu.Unlock()
}

// CompactTo rewrites the journal keeping only records with sequence
// numbers greater than absorbed (those not yet covered by the base
// snapshot), using the write-temp-then-rename protocol so a crash
// leaves either the old or the new journal, never a hybrid.
func (w *WAL) CompactTo(absorbed uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return errors.New("persist: WAL closed")
	}
	if err := w.syncLocked(); err != nil {
		return err
	}
	data, err := os.ReadFile(w.path)
	if err != nil {
		return err
	}
	records, _, err := scanWAL(data, w.storeID)
	if err != nil {
		return err
	}
	tmp := w.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	out := walHeader(w.storeID)
	for _, rec := range records {
		if rec.seq <= absorbed {
			continue
		}
		payload, err := encodeWALRecord(nil, rec.seq, rec.mut)
		if err != nil {
			f.Close()
			return err
		}
		var fr [walFrameSize]byte
		binary.NativeEndian.PutUint32(fr[:], uint32(len(payload)))
		binary.NativeEndian.PutUint32(fr[4:], crc32.Checksum(payload, walCRC))
		out = append(out, fr[:]...)
		out = append(out, payload...)
	}
	if _, err := f.Write(out); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, w.path); err != nil {
		return err
	}
	syncDir(filepath.Dir(w.path))
	// Swap the handle to the new file and position at its end.
	nf, err := os.OpenFile(w.path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	end, err := nf.Seek(0, 2)
	if err != nil {
		nf.Close()
		return err
	}
	w.f.Close()
	w.f, w.size, w.dirty = nf, end, false
	return nil
}

// Close flushes and closes the journal.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.syncLocked()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// syncDir fsyncs a directory so a rename within it is durable; errors
// are ignored (not all filesystems support it).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}

// ---------------------------------------------------------------------
// Record codec. Self-contained (strings inline, unlike the columnar
// pool encoding): a WAL record must be decodable with no context but
// the record itself.
// ---------------------------------------------------------------------

func encodeWALRecord(dst []byte, seq uint64, m graph.Mutation) ([]byte, error) {
	dst = binary.NativeEndian.AppendUint64(dst, seq)
	dst = append(dst, byte(m.Kind))
	switch m.Kind {
	case graph.MutCreateNode:
		dst = binary.NativeEndian.AppendUint64(dst, uint64(m.NodeID))
		dst = binary.NativeEndian.AppendUint32(dst, uint32(len(m.Labels)))
		for _, l := range m.Labels {
			dst = appendWALString(dst, l)
		}
		return appendWALProps(dst, m.Props)
	case graph.MutCreateRel:
		dst = binary.NativeEndian.AppendUint64(dst, uint64(m.RelID))
		dst = binary.NativeEndian.AppendUint64(dst, uint64(m.StartID))
		dst = binary.NativeEndian.AppendUint64(dst, uint64(m.EndID))
		dst = appendWALString(dst, m.RelType)
		return appendWALProps(dst, m.Props)
	case graph.MutSetNodeProp:
		dst = binary.NativeEndian.AppendUint64(dst, uint64(m.NodeID))
		dst = appendWALString(dst, m.Key)
		return appendWALValue(dst, m.Value, 0)
	case graph.MutSetRelProp:
		dst = binary.NativeEndian.AppendUint64(dst, uint64(m.RelID))
		dst = appendWALString(dst, m.Key)
		return appendWALValue(dst, m.Value, 0)
	case graph.MutAddLabel, graph.MutRemoveLabel:
		dst = binary.NativeEndian.AppendUint64(dst, uint64(m.NodeID))
		return appendWALString(dst, m.Label), nil
	case graph.MutDeleteNode:
		dst = binary.NativeEndian.AppendUint64(dst, uint64(m.NodeID))
		if m.Detach {
			return append(dst, 1), nil
		}
		return append(dst, 0), nil
	case graph.MutDeleteRel:
		return binary.NativeEndian.AppendUint64(dst, uint64(m.RelID)), nil
	case graph.MutCreateIndex:
		dst = appendWALString(dst, m.Label)
		return appendWALString(dst, m.Prop), nil
	default:
		return nil, fmt.Errorf("persist: cannot journal mutation kind %d", m.Kind)
	}
}

func decodeWALRecord(b []byte) (walRecord, error) {
	var rec walRecord
	if len(b) < 9 {
		return rec, errors.New("record shorter than header")
	}
	rec.seq = binary.NativeEndian.Uint64(b)
	rec.mut.Kind = graph.MutKind(b[8])
	b = b[9:]
	var err error
	m := &rec.mut
	switch m.Kind {
	case graph.MutCreateNode:
		if m.NodeID, b, err = readWALInt64(b); err != nil {
			return rec, err
		}
		var n uint32
		if n, b, err = readWALUint32(b); err != nil {
			return rec, err
		}
		if uint64(n) > uint64(len(b)) {
			return rec, errors.New("label count exceeds record")
		}
		for i := uint32(0); i < n; i++ {
			var s string
			if s, b, err = readWALString(b); err != nil {
				return rec, err
			}
			m.Labels = append(m.Labels, s)
		}
		m.Props, b, err = readWALProps(b)
	case graph.MutCreateRel:
		if m.RelID, b, err = readWALInt64(b); err != nil {
			return rec, err
		}
		if m.StartID, b, err = readWALInt64(b); err != nil {
			return rec, err
		}
		if m.EndID, b, err = readWALInt64(b); err != nil {
			return rec, err
		}
		if m.RelType, b, err = readWALString(b); err != nil {
			return rec, err
		}
		m.Props, b, err = readWALProps(b)
	case graph.MutSetNodeProp:
		if m.NodeID, b, err = readWALInt64(b); err != nil {
			return rec, err
		}
		if m.Key, b, err = readWALString(b); err != nil {
			return rec, err
		}
		m.Value, b, err = readWALValue(b, 0)
	case graph.MutSetRelProp:
		if m.RelID, b, err = readWALInt64(b); err != nil {
			return rec, err
		}
		if m.Key, b, err = readWALString(b); err != nil {
			return rec, err
		}
		m.Value, b, err = readWALValue(b, 0)
	case graph.MutAddLabel, graph.MutRemoveLabel:
		if m.NodeID, b, err = readWALInt64(b); err != nil {
			return rec, err
		}
		m.Label, b, err = readWALString(b)
	case graph.MutDeleteNode:
		if m.NodeID, b, err = readWALInt64(b); err != nil {
			return rec, err
		}
		if len(b) < 1 {
			return rec, errors.New("truncated delete-node record")
		}
		m.Detach = b[0] != 0
		b = b[1:]
	case graph.MutDeleteRel:
		m.RelID, b, err = readWALInt64(b)
	case graph.MutCreateIndex:
		if m.Label, b, err = readWALString(b); err != nil {
			return rec, err
		}
		m.Prop, b, err = readWALString(b)
	default:
		return rec, fmt.Errorf("unknown mutation kind %d", uint8(m.Kind))
	}
	if err != nil {
		return rec, err
	}
	if len(b) != 0 {
		return rec, fmt.Errorf("%d trailing bytes", len(b))
	}
	return rec, nil
}

func appendWALString(dst []byte, s string) []byte {
	dst = binary.NativeEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

// appendWALProps writes props in their (sorted) key order, so one
// mutation always encodes to the same bytes.
func appendWALProps(dst []byte, props graph.Props) ([]byte, error) {
	dst = binary.NativeEndian.AppendUint32(dst, uint32(len(props)))
	var err error
	for _, p := range props {
		dst = appendWALString(dst, p.Key)
		if dst, err = appendWALValue(dst, p.Val, 0); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

const walMaxValueDepth = 32

// Value tags (shared shape with the columnar pool codec, but strings
// are inline).
const (
	wvNil byte = iota
	wvFalse
	wvTrue
	wvInt
	wvFloat
	wvString
	wvList
	wvMap
)

func appendWALValue(dst []byte, v graph.Value, depth int) ([]byte, error) {
	if depth > walMaxValueDepth {
		return nil, errors.New("persist: value nesting too deep")
	}
	switch t := v.(type) {
	case nil:
		return append(dst, wvNil), nil
	case bool:
		if t {
			return append(dst, wvTrue), nil
		}
		return append(dst, wvFalse), nil
	case int64:
		return binary.NativeEndian.AppendUint64(append(dst, wvInt), uint64(t)), nil
	case float64:
		return binary.NativeEndian.AppendUint64(append(dst, wvFloat), math.Float64bits(t)), nil
	case string:
		return appendWALString(append(dst, wvString), t), nil
	case []graph.Value:
		dst = binary.NativeEndian.AppendUint32(append(dst, wvList), uint32(len(t)))
		var err error
		for _, el := range t {
			if dst, err = appendWALValue(dst, el, depth+1); err != nil {
				return nil, err
			}
		}
		return dst, nil
	case map[string]graph.Value:
		dst = binary.NativeEndian.AppendUint32(append(dst, wvMap), uint32(len(t)))
		var err error
		for _, k := range slices.Sorted(maps.Keys(t)) {
			dst = appendWALString(dst, k)
			if dst, err = appendWALValue(dst, t[k], depth+1); err != nil {
				return nil, err
			}
		}
		return dst, nil
	default:
		return nil, fmt.Errorf("persist: cannot journal value of type %T", v)
	}
}

func readWALUint32(b []byte) (uint32, []byte, error) {
	if len(b) < 4 {
		return 0, nil, errors.New("truncated uint32")
	}
	return binary.NativeEndian.Uint32(b), b[4:], nil
}

func readWALInt64(b []byte) (int64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, errors.New("truncated int64")
	}
	return int64(binary.NativeEndian.Uint64(b)), b[8:], nil
}

func readWALString(b []byte) (string, []byte, error) {
	n, b, err := readWALUint32(b)
	if err != nil {
		return "", nil, err
	}
	if uint64(n) > uint64(len(b)) {
		return "", nil, errors.New("string length exceeds record")
	}
	return string(b[:n]), b[n:], nil
}

// readWALProps reads a property list in whatever order it was written
// (older journals wrote map order) and returns it as sorted Props.
func readWALProps(b []byte) (graph.Props, []byte, error) {
	n, b, err := readWALUint32(b)
	if err != nil {
		return nil, nil, err
	}
	if n == 0 {
		return nil, b, nil
	}
	if uint64(n)*5 > uint64(len(b)) { // every entry is ≥ 5 bytes
		return nil, nil, errors.New("property count exceeds record")
	}
	props := make(map[string]graph.Value, n)
	for i := uint32(0); i < n; i++ {
		var k string
		if k, b, err = readWALString(b); err != nil {
			return nil, nil, err
		}
		var v graph.Value
		if v, b, err = readWALValue(b, 0); err != nil {
			return nil, nil, err
		}
		props[k] = v
	}
	return graph.PropsOf(props), b, nil
}

func readWALValue(b []byte, depth int) (graph.Value, []byte, error) {
	if depth > walMaxValueDepth {
		return nil, nil, errors.New("value nesting too deep")
	}
	if len(b) < 1 {
		return nil, nil, errors.New("truncated value")
	}
	tag := b[0]
	b = b[1:]
	switch tag {
	case wvNil:
		return nil, b, nil
	case wvFalse:
		return false, b, nil
	case wvTrue:
		return true, b, nil
	case wvInt:
		v, rest, err := readWALInt64(b)
		return v, rest, err
	case wvFloat:
		if len(b) < 8 {
			return nil, nil, errors.New("truncated float")
		}
		return math.Float64frombits(binary.NativeEndian.Uint64(b)), b[8:], nil
	case wvString:
		s, rest, err := readWALString(b)
		if err != nil {
			return nil, nil, err
		}
		return s, rest, nil
	case wvList:
		n, rest, err := readWALUint32(b)
		if err != nil {
			return nil, nil, err
		}
		b = rest
		if uint64(n) > uint64(len(b)) {
			return nil, nil, errors.New("list count exceeds record")
		}
		out := make([]graph.Value, 0, n)
		for i := uint32(0); i < n; i++ {
			var v graph.Value
			if v, b, err = readWALValue(b, depth+1); err != nil {
				return nil, nil, err
			}
			out = append(out, v)
		}
		return out, b, nil
	case wvMap:
		n, rest, err := readWALUint32(b)
		if err != nil {
			return nil, nil, err
		}
		b = rest
		if uint64(n)*5 > uint64(len(b)) {
			return nil, nil, errors.New("map count exceeds record")
		}
		out := make(map[string]graph.Value, n)
		for i := uint32(0); i < n; i++ {
			var k string
			if k, b, err = readWALString(b); err != nil {
				return nil, nil, err
			}
			var v graph.Value
			if v, b, err = readWALValue(b, depth+1); err != nil {
				return nil, nil, err
			}
			out[k] = v
		}
		return out, b, nil
	default:
		return nil, nil, fmt.Errorf("unknown value tag %d", tag)
	}
}
