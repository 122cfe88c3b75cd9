package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"chatiyp/internal/graph"
)

func testMutations() []graph.Mutation {
	return []graph.Mutation{
		{Kind: graph.MutCreateNode, NodeID: 1, Labels: []string{"AS", "Resource"}, Props: graph.PropsOf(map[string]graph.Value{
			"asn":    int64(64500),
			"name":   "AS-EXAMPLE",
			"score":  3.25,
			"active": true,
			"tags":   []graph.Value{"tier1", int64(9), nil},
			"meta":   map[string]graph.Value{"src": "test", "rank": int64(1)},
		})},
		{Kind: graph.MutCreateNode, NodeID: 2, Labels: nil, Props: nil},
		{Kind: graph.MutCreateRel, RelID: 1, StartID: 1, EndID: 2, RelType: "DEPENDS_ON", Props: graph.Props{{Key: "hege", Val: 0.5}}},
		{Kind: graph.MutSetNodeProp, NodeID: 1, Key: "name", Value: "renamed"},
		{Kind: graph.MutSetNodeProp, NodeID: 1, Key: "score", Value: nil},
		{Kind: graph.MutSetRelProp, RelID: 1, Key: "hege", Value: 0.75},
		{Kind: graph.MutAddLabel, NodeID: 2, Label: "IXP"},
		{Kind: graph.MutRemoveLabel, NodeID: 1, Label: "Resource"},
		{Kind: graph.MutCreateIndex, Label: "AS", Prop: "asn"},
		{Kind: graph.MutDeleteRel, RelID: 1},
		{Kind: graph.MutDeleteNode, NodeID: 2, Detach: true},
	}
}

func TestWALRoundTripAllKinds(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.iypw")
	w, recs, err := openWAL(path, 99, FsyncNever)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh WAL returned %d records", len(recs))
	}
	muts := testMutations()
	for i, m := range muts {
		seq, n, err := w.Append(m)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("append %d: got seq %d", i, seq)
		}
		if n <= walFrameSize {
			t.Fatalf("append %d: suspicious frame size %d", i, n)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, recs, err := openWAL(path, 99, FsyncNever)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if len(recs) != len(muts) {
		t.Fatalf("reopen: got %d records, want %d", len(recs), len(muts))
	}
	for i, rec := range recs {
		if rec.seq != uint64(i+1) {
			t.Fatalf("record %d: seq %d", i, rec.seq)
		}
		if !reflect.DeepEqual(rec.mut, muts[i]) {
			t.Fatalf("record %d round-trip mismatch:\n got %#v\nwant %#v", i, rec.mut, muts[i])
		}
	}
	if got := w2.NextSeq(); got != uint64(len(muts)+1) {
		t.Fatalf("NextSeq after reopen = %d", got)
	}
}

// TestWALTornTail simulates a crash mid-append: every truncation point
// inside the final record must recover the preceding records cleanly
// and leave the file appendable.
func TestWALTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.iypw")
	w, _, err := openWAL(path, 7, FsyncNever)
	if err != nil {
		t.Fatal(err)
	}
	muts := testMutations()[:4]
	offsets := []int64{walHeaderSize}
	for _, m := range muts {
		_, n, err := w.Append(m)
		if err != nil {
			t.Fatal(err)
		}
		offsets = append(offsets, offsets[len(offsets)-1]+int64(n))
	}
	w.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	lastStart, lastEnd := offsets[len(offsets)-2], offsets[len(offsets)-1]
	for cut := lastStart + 1; cut < lastEnd; cut++ {
		torn := filepath.Join(dir, "torn.iypw")
		if err := os.WriteFile(torn, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		tw, recs, err := openWAL(torn, 7, FsyncNever)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(recs) != len(muts)-1 {
			t.Fatalf("cut %d: got %d records, want %d", cut, len(recs), len(muts)-1)
		}
		// The torn record must be physically gone and the log appendable.
		if _, _, err := tw.Append(muts[len(muts)-1]); err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		tw.Close()
		if _, recs2, err := openWAL(torn, 7, FsyncNever); err != nil || len(recs2) != len(muts) {
			t.Fatalf("cut %d: after re-append got %d records, err %v", cut, len(recs2), err)
		} else {
			if recs2[len(recs2)-1].seq != uint64(len(muts)) {
				t.Fatalf("cut %d: resumed seq %d", cut, recs2[len(recs2)-1].seq)
			}
		}
		os.Remove(torn)
	}
}

// TestWALMidFileCorruption: damage followed by committed records must
// be a hard error, never a silent drop.
func TestWALMidFileCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.iypw")
	w, _, err := openWAL(path, 7, FsyncNever)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range testMutations()[:3] {
		if _, _, err := w.Append(m); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	data, _ := os.ReadFile(path)

	// Flip one payload byte of the FIRST record.
	bad := append([]byte(nil), data...)
	bad[walHeaderSize+walFrameSize] ^= 0xFF
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := openWAL(path, 7, FsyncNever); !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("mid-file corruption: got %v, want ErrWALCorrupt", err)
	}

	// The same flip on the LAST record is a torn tail: recoverable.
	recs0, _, err := scanWAL(data, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Find the last frame's start by re-walking the frame lengths.
	lastOff := int64(walHeaderSize)
	for i := 0; i < len(recs0)-1; i++ {
		ln := int64(nativeU32(data[lastOff:]))
		lastOff += walFrameSize + ln
	}
	bad2 := append([]byte(nil), data...)
	bad2[lastOff+walFrameSize] ^= 0xFF
	if err := os.WriteFile(path, bad2, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, recs, err := openWAL(path, 7, FsyncNever); err != nil || len(recs) != len(recs0)-1 {
		t.Fatalf("tail corruption: err=%v records=%d want %d", err, len(recs), len(recs0)-1)
	}
}

func nativeU32(b []byte) uint32 { return binary.NativeEndian.Uint32(b) }

func TestWALStoreIDMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.iypw")
	w, _, err := openWAL(path, 7, FsyncNever)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if _, _, err := openWAL(path, 8, FsyncNever); err == nil {
		t.Fatal("opened WAL with wrong store ID")
	}
}

func TestWALBadHeader(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string][]byte{
		"short":     []byte("IYP"),
		"bad-magic": bytes.Repeat([]byte{'x'}, walHeaderSize),
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := openWAL(path, 7, FsyncNever); err == nil {
			t.Fatalf("%s: opened corrupt WAL", name)
		}
	}
}

func TestWALCompactTo(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.iypw")
	w, _, err := openWAL(path, 7, FsyncNever)
	if err != nil {
		t.Fatal(err)
	}
	m := graph.Mutation{Kind: graph.MutSetNodeProp, NodeID: 1, Key: "k", Value: int64(0)}
	for i := 0; i < 10; i++ {
		if _, _, err := w.Append(m); err != nil {
			t.Fatal(err)
		}
	}
	before := w.Size()
	if err := w.CompactTo(7); err != nil {
		t.Fatal(err)
	}
	if w.Size() >= before {
		t.Fatalf("compaction did not shrink WAL: %d -> %d", before, w.Size())
	}
	// Appends continue where the sequence left off.
	if seq, _, err := w.Append(m); err != nil || seq != 11 {
		t.Fatalf("append after compact: seq=%d err=%v", seq, err)
	}
	w.Close()
	_, recs, err := openWAL(path, 7, FsyncNever)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{8, 9, 10, 11}
	if len(recs) != len(want) {
		t.Fatalf("got %d records after compact, want %d", len(recs), len(want))
	}
	for i, rec := range recs {
		if rec.seq != want[i] {
			t.Fatalf("record %d: seq %d, want %d", i, rec.seq, want[i])
		}
	}
}

// FuzzWALScan: no input may panic the scanner, and accepted records
// must be sequence-contiguous.
func FuzzWALScan(f *testing.F) {
	path := filepath.Join(f.TempDir(), "wal.iypw")
	w, _, err := openWAL(path, 7, FsyncNever)
	if err != nil {
		f.Fatal(err)
	}
	for _, m := range testMutations() {
		if _, _, err := w.Append(m); err != nil {
			f.Fatal(err)
		}
	}
	w.Close()
	valid, _ := os.ReadFile(path)
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add(valid[:walHeaderSize])
	f.Add([]byte{})
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, end, err := scanWAL(data, 0)
		if err != nil {
			return
		}
		if end > int64(len(data)) {
			t.Fatalf("valid end %d beyond input %d", end, len(data))
		}
		for i := 1; i < len(recs); i++ {
			if recs[i].seq != recs[i-1].seq+1 {
				t.Fatalf("non-contiguous accepted sequence at %d", i)
			}
		}
	})
}

// TestWALPropsDeterministic: one CREATE journals to one byte string,
// however the caller's property map happens to iterate.
func TestWALPropsDeterministic(t *testing.T) {
	var first []byte
	for i := 0; i < 20; i++ {
		g := graph.New()
		var rec []byte
		g.SetWriteObserver(func(m graph.Mutation) {
			var err error
			if rec, err = encodeWALRecord(nil, 1, m); err != nil {
				t.Fatal(err)
			}
		})
		g.MustCreateNode([]string{"AS"}, map[string]any{
			"asn": int64(2497), "name": "IIJ", "meta": map[string]any{"src": "bgp", "rank": int64(1), "live": true},
		})
		if i == 0 {
			first = rec
		} else if !bytes.Equal(rec, first) {
			t.Fatalf("encoding %d differs from the first:\n%x\n%x", i, rec, first)
		}
	}
}

// TestWALPropsUnsortedReplay: a record whose properties are not in key
// order (journals written before Props was sorted used map order)
// replays to the sorted property set.
func TestWALPropsUnsortedReplay(t *testing.T) {
	rec := binary.NativeEndian.AppendUint64(nil, 1) // seq
	rec = append(rec, byte(graph.MutCreateNode))
	rec = binary.NativeEndian.AppendUint64(rec, 1) // node ID
	rec = binary.NativeEndian.AppendUint32(rec, 0) // labels
	rec = binary.NativeEndian.AppendUint32(rec, 3) // properties
	for _, kv := range []struct {
		k string
		v int64
	}{{"name", 3}, {"asn", 1}, {"cc", 2}} {
		rec = appendWALString(rec, kv.k)
		var err error
		if rec, err = appendWALValue(rec, kv.v, 0); err != nil {
			t.Fatal(err)
		}
	}
	got, err := decodeWALRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	want := graph.Props{{Key: "asn", Val: int64(1)}, {Key: "cc", Val: int64(2)}, {Key: "name", Val: int64(3)}}
	if !reflect.DeepEqual(got.mut.Props, want) {
		t.Fatalf("decoded props %v, want %v", got.mut.Props, want)
	}
	g := graph.New()
	if err := g.ApplyMutation(got.mut); err != nil {
		t.Fatal(err)
	}
	if n := g.Node(1); n == nil || !reflect.DeepEqual(n.Props, want) {
		t.Fatalf("replayed node %v, want props %v", n, want)
	}
}
