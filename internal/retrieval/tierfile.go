package retrieval

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"math"
	"slices"
	"unsafe"

	"chatiyp/internal/embed"
	"chatiyp/internal/graph"
	"chatiyp/internal/iyp"
	"chatiyp/internal/mmap"
	"chatiyp/internal/vector"
)

// The tier file (IYPVEC1) holds a Tier and the stamp of the base
// snapshot it was built from. Like IYPCOL1 it is written in native byte
// order, which a probe in the header enforces, and mapped read-only, so
// that the slab and the integer sections are the mapped bytes
// reinterpreted in place. The slab holds the rows normalized
// (vector.Normalize), so the index borrows them as they are; version 1
// held them raw, and reads as stale.
//
//	off  size
//	  0     8  magic "IYPVEC1\n"
//	  8     4  format version
//	 12     4  embedder flags (tierCharNGram | tierBigrams | tierStem)
//	 16     8  byte-order probe
//	 24     8  file size
//	 32     8  stamp: store ID
//	 40     8  stamp: last WAL sequence number
//	 48     4  embedder width (dim)
//	 52     4  distinct document kinds
//	 56     8  documents
//	 64     8  document-frequency pairs
//	 72     8  documents the frequencies were counted over
//	 80     8  bytes of string blob
//	 88        sections, in this order:
//	           document frequencies  (hash u32, n u32), ascending hash
//	           slab                  docs × dim float32, normalized, padded to 8
//	           IDs                   docs × int64
//	           string ends           (kinds + docs) × uint32 offsets into the blob
//	           kind of each doc      docs × uint8
//	           blob                  the kinds, then the doc texts
//	size-4  4  CRC-32C of every byte before it
const (
	tierMagic       = "IYPVEC1\n"
	tierVersion     = 2
	tierEndianProbe = 0x0102030405060708
	tierHeaderSize  = 88

	tierCharNGram = 1 << 0
	tierBigrams   = 1 << 1
	tierStem      = 1 << 2
)

var tierCRC = crc32.MakeTable(crc32.Castagnoli)

// The reasons a tier file is not used. Read wraps exactly one of them,
// so that a caller can say which fallback it takes.
var (
	ErrNoTier  = errors.New("no tier file")
	ErrStale   = errors.New("stale")
	ErrCorrupt = errors.New("corrupt")
	ErrDrift   = errors.New("drift")
)

// Stamp names the base snapshot a tier was built from: the data
// directory's identity and the WAL sequence number the base absorbs
// writes up to.
type Stamp struct {
	StoreID uint64
	LastSeq uint64
}

// sampleDocs is how many documents Read re-describes and re-embeds.
const sampleDocs = 64

func configFlags(c embed.Config) uint32 {
	var f uint32
	if c.CharNGram {
		f |= tierCharNGram
	}
	if c.Bigrams {
		f |= tierBigrams
	}
	if c.StemTokens {
		f |= tierStem
	}
	return f
}

// Write writes t and its stamp in the IYPVEC1 format.
func (t *Tier) Write(w io.Writer, stamp Stamp) error {
	dim := t.Embedder.Dim()
	if len(t.Slab) != len(t.Docs)*dim {
		return fmt.Errorf("retrieval: slab holds %d values, %d docs need %d", len(t.Slab), len(t.Docs), len(t.Docs)*dim)
	}
	var kinds []string
	kindOf := make([]uint8, len(t.Docs))
	blobLen := 0
	for i, d := range t.Docs {
		k := slices.Index(kinds, d.Kind)
		if k < 0 {
			if len(kinds) == math.MaxUint8+1 {
				return fmt.Errorf("retrieval: more than %d document kinds", math.MaxUint8+1)
			}
			k = len(kinds)
			kinds = append(kinds, d.Kind)
			blobLen += len(d.Kind)
		}
		kindOf[i] = uint8(k)
		blobLen += len(d.Text)
	}
	if blobLen > math.MaxUint32 {
		return fmt.Errorf("retrieval: %d bytes of text exceed the format's 4 GiB", blobLen)
	}
	freqs := slices.Clone(t.DocFreqs)
	slices.SortFunc(freqs, func(a, b embed.DocFreq) int { return cmp.Compare(a.Hash, b.Hash) })

	slabBytes := align8(4 * len(t.Slab))
	size := tierHeaderSize + 8*len(freqs) + slabBytes + 8*len(t.Docs) +
		4*(len(kinds)+len(t.Docs)) + len(t.Docs) + blobLen + 4
	hdr := make([]byte, tierHeaderSize)
	copy(hdr, tierMagic)
	ne := binary.NativeEndian
	ne.PutUint32(hdr[8:], tierVersion)
	ne.PutUint32(hdr[12:], configFlags(t.Embedder.Config()))
	ne.PutUint64(hdr[16:], tierEndianProbe)
	ne.PutUint64(hdr[24:], uint64(size))
	ne.PutUint64(hdr[32:], stamp.StoreID)
	ne.PutUint64(hdr[40:], stamp.LastSeq)
	ne.PutUint32(hdr[48:], uint32(dim))
	ne.PutUint32(hdr[52:], uint32(len(kinds)))
	ne.PutUint64(hdr[56:], uint64(len(t.Docs)))
	ne.PutUint64(hdr[64:], uint64(len(freqs)))
	ne.PutUint64(hdr[72:], uint64(len(t.Docs)))
	ne.PutUint64(hdr[80:], uint64(blobLen))

	crc := crc32.New(tierCRC)
	bw := bufio.NewWriterSize(w, 1<<16)
	out := io.MultiWriter(bw, crc)
	ids := make([]int64, len(t.Docs))
	ends := make([]uint32, 0, len(kinds)+len(t.Docs))
	end := uint32(0)
	for _, k := range kinds {
		end += uint32(len(k))
		ends = append(ends, end)
	}
	for i, d := range t.Docs {
		ids[i] = d.ID
		end += uint32(len(d.Text))
		ends = append(ends, end)
	}
	for _, b := range [][]byte{
		hdr,
		asBytes(freqs),
		asBytes(t.Slab),
		make([]byte, slabBytes-4*len(t.Slab)),
		asBytes(ids),
		asBytes(ends),
		kindOf,
	} {
		if _, err := out.Write(b); err != nil {
			return err
		}
	}
	for _, s := range kinds {
		if _, err := io.WriteString(out, s); err != nil {
			return err
		}
	}
	for _, d := range t.Docs {
		if _, err := io.WriteString(out, d.Text); err != nil {
			return err
		}
	}
	if _, err := bw.Write(binary.NativeEndian.AppendUint32(nil, crc.Sum32())); err != nil {
		return err
	}
	return bw.Flush()
}

// Read maps the tier file at path read-only and validates it for the
// base snapshot stamped want, whose graph v is: Open, then
// File.Validate. The checks are the checksum over every byte, the
// stamp and the embedder configuration, the document IDs against
// iyp.DescribableNodes(v), and a strided sample of sampleDocs
// documents, first and last included, re-described, re-embedded and
// normalized bit for bit — which catches a Describe or embedding code
// that changed since the file was written. The tier's strings, IDs,
// document frequencies and slab alias the mapping, which is never
// unmapped once the file validates (like the base snapshot's); a
// checkpoint replaces the file by rename, so the mapping keeps its
// bytes. A file that fails a check is unmapped.
//
// Every failure wraps exactly one of ErrNoTier, ErrStale, ErrCorrupt
// and ErrDrift. None of them is fatal to a caller: the tier is derived
// data, and Build makes it again.
func Read(path string, want Stamp, v *graph.View) (*Tier, error) {
	f, err := Open(path)
	if err != nil {
		return nil, err
	}
	return f.Validate(want, v)
}

// File is a tier file checked as far as it can be without the graph of
// its base: what Open returns, for Validate to finish or Close to drop.
type File struct {
	m     *mmap.Mapping // nil for bytes parse was handed
	stamp Stamp
	tier  *Tier
}

// Open maps the tier file at path and checks everything Read checks
// that does not need the base: the checksum over every byte, the
// header, the embedder configuration, the sections and the document
// frequencies, which it fits the embedder on. A boot runs it while the
// base decodes. A file that fails is unmapped.
func Open(path string) (*File, error) {
	m, err := mmap.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, ErrNoTier
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	f, err := parseFile(m.Data)
	if err != nil {
		m.Close()
		return nil, err
	}
	f.m = m
	return f, nil
}

// Close unmaps a file that is not going to be validated.
func (f *File) Close() {
	if f.m != nil {
		f.m.Close()
	}
}

// Validate finishes Read's checks for the base snapshot stamped want,
// whose graph v is — the stamp, the document IDs and the re-embedded
// sample — and returns the tier; a file that fails is unmapped.
func (f *File) Validate(want Stamp, v *graph.View) (*Tier, error) {
	t, err := f.validate(want, v)
	if err != nil {
		f.Close()
	}
	return t, err
}

func (f *File) validate(want Stamp, v *graph.View) (*Tier, error) {
	if f.stamp != want {
		return nil, fmt.Errorf("%w: tier built from base (store %#x, seq %d), the base is (store %#x, seq %d)",
			ErrStale, f.stamp.StoreID, f.stamp.LastSeq, want.StoreID, want.LastSeq)
	}
	t := f.tier
	nodes := iyp.DescribableNodes(v)
	if len(nodes) != len(t.Docs) {
		return nil, fmt.Errorf("%w: the file holds %d docs, the base describes %d nodes", ErrDrift, len(t.Docs), len(nodes))
	}
	for i, d := range t.Docs {
		if d.ID != nodes[i].NodeID {
			return nil, fmt.Errorf("%w: doc %d is node %d, the base describes node %d", ErrDrift, i, d.ID, nodes[i].NodeID)
		}
	}
	dim := t.Embedder.Dim()
	for _, i := range sample(len(t.Docs)) {
		d := iyp.DescribeNode(v, nodes[i])
		if d.Text != t.Docs[i].Text || d.Label != t.Docs[i].Kind {
			return nil, fmt.Errorf("%w: doc %d (node %d) is described differently", ErrDrift, i, d.NodeID)
		}
		row := t.Slab[i*dim : (i+1)*dim]
		vec := t.Embedder.Embed(d.Text)
		vector.Normalize(vec)
		for j, x := range vec {
			if math.Float32bits(x) != math.Float32bits(row[j]) {
				return nil, fmt.Errorf("%w: doc %d (node %d) embeds differently", ErrDrift, i, d.NodeID)
			}
		}
	}
	return t, nil
}

// parse decodes and validates a tier file's bytes (see Read).
func parse(data []byte, want Stamp, v *graph.View) (*Tier, error) {
	f, err := parseFile(data)
	if err != nil {
		return nil, err
	}
	return f.validate(want, v)
}

// parseFile decodes a tier file's bytes and makes the checks of Open.
// Every count is checked against the bytes it claims before anything
// is allocated from it.
func parseFile(data []byte) (*File, error) {
	corrupt := func(format string, args ...any) error {
		return fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
	}
	if len(data) < len(tierMagic) || string(data[:len(tierMagic)]) != tierMagic {
		return nil, corrupt("bad magic: not an IYPVEC1 file")
	}
	if len(data) < tierHeaderSize+4 {
		return nil, corrupt("file too short for the header (%d bytes)", len(data))
	}
	ne := binary.NativeEndian
	if probe := ne.Uint64(data[16:]); probe != tierEndianProbe {
		return nil, corrupt("byte-order mismatch or corrupt header (probe %#x)", probe)
	}
	if size := ne.Uint64(data[24:]); size != uint64(len(data)) {
		return nil, corrupt("file size mismatch: header says %d, have %d", size, len(data))
	}
	body := len(data) - 4
	if got, stored := crc32.Checksum(data[:body], tierCRC), ne.Uint32(data[body:]); got != stored {
		return nil, corrupt("checksum mismatch (stored %#x, computed %#x)", stored, got)
	}
	if ver := ne.Uint32(data[8:]); ver != tierVersion {
		return nil, fmt.Errorf("%w: format version %d, this build reads %d", ErrStale, ver, tierVersion)
	}
	f := &File{stamp: Stamp{StoreID: ne.Uint64(data[32:]), LastSeq: ne.Uint64(data[40:])}}
	emb := embed.NewDefault()
	cfg := emb.Config()
	if flags, dim := ne.Uint32(data[12:]), ne.Uint32(data[48:]); flags != configFlags(cfg) || uint64(dim) != uint64(cfg.Dim) {
		return nil, fmt.Errorf("%w: embedder flags %#x dim %d, this build embeds with flags %#x dim %d",
			ErrStale, flags, dim, configFlags(cfg), cfg.Dim)
	}
	dim := cfg.Dim
	nKinds, nDocs := uint64(ne.Uint32(data[52:])), ne.Uint64(data[56:])
	nFreqs, fitDocs, blobLen := ne.Uint64(data[64:]), ne.Uint64(data[72:]), ne.Uint64(data[80:])
	if nKinds > math.MaxUint8+1 {
		return nil, corrupt("%d document kinds", nKinds)
	}
	if fitDocs != nDocs {
		return nil, corrupt("frequencies counted over %d documents, the file holds %d", fitDocs, nDocs)
	}

	data = alignedCopy(data)
	sec := sections{data: data[:body], off: tierHeaderSize}
	freqBytes := sec.take(nFreqs, 8)
	slabBytes := sec.take(nDocs, 4*uint64(dim))
	sec.off = min(align8(sec.off), len(sec.data))
	idBytes := sec.take(nDocs, 8)
	endBytes := sec.take(nKinds+nDocs, 4)
	kindOf := sec.take(nDocs, 1)
	blob := sec.take(blobLen, 1)
	if sec.err != nil {
		return nil, corrupt("%v", sec.err)
	}
	if sec.off != body {
		return nil, corrupt("%d bytes after the last section", body-sec.off)
	}

	freqs := aliasSlice[embed.DocFreq](freqBytes)
	for i, f := range freqs {
		if i > 0 && f.Hash <= freqs[i-1].Hash {
			return nil, corrupt("document frequencies not in ascending hash order at pair %d", i)
		}
		if f.N == 0 || uint64(f.N) > fitDocs {
			return nil, corrupt("feature %#x occurs in %d of %d documents", f.Hash, f.N, fitDocs)
		}
	}
	ends := aliasSlice[uint32](endBytes)
	str := func(i int) (string, bool) {
		lo := uint32(0)
		if i > 0 {
			lo = ends[i-1]
		}
		hi := ends[i]
		if lo > hi || uint64(hi) > blobLen {
			return "", false
		}
		if lo == hi {
			return "", true
		}
		return unsafe.String(&blob[lo], int(hi-lo)), true
	}
	kinds := make([]string, nKinds)
	for k := range kinds {
		s, ok := str(k)
		if !ok {
			return nil, corrupt("string %d outside the blob", k)
		}
		kinds[k] = s
	}
	ids := aliasSlice[int64](idBytes)
	docs := make([]vector.Doc, nDocs)
	for i := range docs {
		text, ok := str(int(nKinds) + i)
		if !ok {
			return nil, corrupt("text of doc %d outside the blob", i)
		}
		if uint64(kindOf[i]) >= nKinds {
			return nil, corrupt("doc %d has kind %d of %d", i, kindOf[i], nKinds)
		}
		docs[i] = vector.Doc{ID: ids[i], Text: text, Kind: kinds[kindOf[i]]}
	}
	emb.FitDocFreqs(freqs, int(fitDocs))
	f.tier = &Tier{Embedder: emb, Docs: docs, Slab: aliasSlice[float32](slabBytes), DocFreqs: freqs}
	return f, nil
}

// sample returns up to sampleDocs document indices spread evenly over
// n, the first and the last included.
func sample(n int) []int {
	if n <= sampleDocs {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	out := make([]int, sampleDocs)
	for k := range out {
		out[k] = k * (n - 1) / (sampleDocs - 1)
	}
	return out
}

// sections walks a tier file's sections front to back. A section that
// does not fit sets err; later takes then return nil.
type sections struct {
	data []byte
	off  int
	err  error
}

// take returns the next count×size bytes. The count is checked against
// the bytes left before it is multiplied, so no product can overflow.
func (s *sections) take(count, size uint64) []byte {
	if s.err != nil {
		return nil
	}
	left := uint64(len(s.data) - s.off)
	if size != 0 && count > left/size {
		s.err = fmt.Errorf("a section of %d × %d bytes at offset %d exceeds the file", count, size, s.off)
		return nil
	}
	b := s.data[s.off : s.off+int(count*size)]
	s.off += len(b)
	return b
}

func align8(n int) int { return (n + 7) &^ 7 }

// asBytes views a slice of fixed-size values as its bytes.
func asBytes[T any](v []T) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*int(unsafe.Sizeof(v[0])))
}

// aliasSlice reinterprets b as a slice of T. File order is native order
// (the header probe enforces it) and b starts at an offset aligned for
// T in a buffer alignedCopy made 8-aligned.
func aliasSlice[T any](b []byte) []T {
	if len(b) == 0 {
		return nil
	}
	var zero T
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), len(b)/int(unsafe.Sizeof(zero)))
}

// alignedCopy returns data, or an 8-byte-aligned copy when its base
// address is not (a mapping and a large heap buffer always are; the
// format must not depend on it).
func alignedCopy(data []byte) []byte {
	if uintptr(unsafe.Pointer(&data[0]))%8 == 0 {
		return data
	}
	buf := make([]uint64, (len(data)+7)/8)
	aligned := unsafe.Slice((*byte)(unsafe.Pointer(&buf[0])), len(data))
	copy(aligned, data)
	return aligned
}
