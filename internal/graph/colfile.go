package graph

// Columnar snapshot format ("IYPCOL1"): the mmap-able on-disk tier.
//
// A columnar file is a flat, pointer-free serialization of one epoch
// (readState): a fixed header, a section directory, and 8-byte-aligned
// sections holding node/rel ID columns, a deduplicated string pool, a
// deduplicated value pool, per-entity label/property reference tables,
// the type-bucketed adjacency as one flat int64 column plus per-node
// span metadata, and the label/property-index postings. Loading is
// "mmap + validate + publish": integer columns (node IDs, rel
// endpoints, adjacency, index postings) and all strings are aliased
// directly out of the mapping with zero copying, the epoch is
// constructed around those aliases, and the first View pin is already
// satisfied — no reflection, no per-value boxing, no re-sorting,
// no index rebuilds.
//
// Every multi-byte scalar is written in the platform's native byte
// order; the header carries an endianness probe so a file written on a
// machine with a different byte order is rejected cleanly instead of
// misread. All sections carry CRC-32C checksums (verification is
// optional at load). See docs/PERSISTENCE.md for the layout diagram.

import (
	"hash/crc32"
	"sync/atomic"
	"unsafe"
)

const (
	colMagic         = "IYPCOL1\n"
	colFormatVersion = 1
	colHeaderSize    = 40
	colDirEntrySize  = 24
	colMetaSize      = 64
	colMaxSections   = 64
	colMaxValueDepth = 32
	// colEndianProbe is written in native byte order; a reader whose
	// native order decodes it to something else must not alias the
	// file's integer columns.
	colEndianProbe uint64 = 0x0102030405060708
	// colIDHeadroom bounds how far the stored ID allocators may exceed
	// the live entity counts (sparse IDs from deletions). Epoch tables
	// are allocated at nextNode/nextRel length, so an implausible
	// allocator value in a corrupt file must fail validation instead of
	// forcing a huge allocation.
	colIDHeadroom = 64
)

// Section kinds, all required in a version-1 file. Unknown kinds are
// ignored for forward compatibility.
const (
	secMeta uint32 = iota + 1
	secStrings
	secValues
	secNodeIDs
	secNodeLabels
	secNodeProps
	secRelIDs
	secRelTypes
	secRelStarts
	secRelEnds
	secRelProps
	secAdjIDs
	secAdjMeta
	secLabelMeta
	secLabelIDs
	secIndexMeta
	secIndexIDs
)

var colRequiredSections = []uint32{
	secMeta, secStrings, secValues, secNodeIDs, secNodeLabels,
	secNodeProps, secRelIDs, secRelTypes, secRelStarts, secRelEnds,
	secRelProps, secAdjIDs, secAdjMeta, secLabelMeta, secLabelIDs,
	secIndexMeta, secIndexIDs,
}

// Value-pool encoding tags.
const (
	valNil byte = iota
	valFalse
	valTrue
	valInt
	valFloat
	valString
	valList
	valMap
)

var colCRC = crc32.MakeTable(crc32.Castagnoli)

// ColMeta carries the persistence-tier metadata stored in a columnar
// snapshot: the WAL sequence number the snapshot absorbs writes up to,
// and the owning store's identity (both zero for standalone files).
type ColMeta struct {
	LastSeq uint64
	StoreID uint64
}

// ColInfo reports what a columnar load found.
type ColInfo struct {
	Version   uint64 // graph mutation counter at snapshot time
	LastSeq   uint64
	StoreID   uint64
	NodeCount int
	RelCount  int
}

// ColLoadOptions controls columnar loading.
type ColLoadOptions struct {
	// VerifyChecksums validates every section CRC before decoding.
	// LoadFile turns it on (arbitrary input); a persist.Store may skip
	// it for its own checkpoints.
	VerifyChecksums bool
}

// lastLoadNanos records the wall time of the most recent snapshot load
// in this process, surfaced as graph.load_ns.
var lastLoadNanos atomic.Int64

// RecordLoadNanos stores the duration of a snapshot load for the
// graph.load_ns gauge.
func RecordLoadNanos(ns int64) { lastLoadNanos.Store(ns) }

// LastLoadNanos returns the duration of the most recent snapshot load.
func LastLoadNanos() int64 { return lastLoadNanos.Load() }

// SniffColumnar reports whether b begins with the columnar magic.
func SniffColumnar(b []byte) bool {
	return len(b) >= len(colMagic) && string(b[:len(colMagic)]) == colMagic
}

// ---------------------------------------------------------------------
// Unsafe aliasing helpers. File order equals native order (the header
// probe enforces it), so an int64/uint32 column is the mapped bytes
// reinterpreted. Aliased slices have len == cap: appends copy, so
// escaped read-only slices can never grow into neighboring sections.
// ---------------------------------------------------------------------

func i64Bytes(v []int64) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*8)
}

func u32Bytes(v []uint32) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*4)
}

func aliasI64(b []byte) []int64 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), len(b)/8)
}

func aliasU32(b []byte) []uint32 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), len(b)/4)
}

// ensureAligned returns data, or an 8-byte-aligned copy when the
// buffer's base address isn't (mmap regions are page-aligned; heap
// buffers almost always are, but the format must not depend on it).
func ensureAligned(data []byte) []byte {
	if len(data) == 0 || uintptr(unsafe.Pointer(&data[0]))%8 == 0 {
		return data
	}
	buf := make([]uint64, (len(data)+7)/8)
	aligned := unsafe.Slice((*byte)(unsafe.Pointer(&buf[0])), len(data))
	copy(aligned, data)
	return aligned
}

func align8(n int) int { return (n + 7) &^ 7 }
