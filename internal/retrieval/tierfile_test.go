package retrieval_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"chatiyp/internal/graph"
	"chatiyp/internal/retrieval"
	"chatiyp/internal/vector"
)

// tinyGraph holds a handful of described nodes: a tier file small
// enough to fuzz.
func tinyGraph() *graph.Graph {
	g := graph.New()
	for i := 0; i < 6; i++ {
		g.MustCreateNode([]string{"AS"}, map[string]any{"asn": int64(64500 + i), "name": fmt.Sprintf("Network %d", i)})
	}
	g.MustCreateNode([]string{"Country"}, map[string]any{"country_code": "NL", "name": "Netherlands"})
	return g
}

func writeTier(tb testing.TB, path string, tier *retrieval.Tier, stamp retrieval.Stamp) {
	tb.Helper()
	var buf bytes.Buffer
	if err := tier.Write(&buf, stamp); err != nil {
		tb.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		tb.Fatal(err)
	}
}

func tierBytes(tb testing.TB, tier *retrieval.Tier, stamp retrieval.Stamp) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := tier.Write(&buf, stamp); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// reseal makes data a file whose size field and checksum hold, so that
// a mutation reaches the section parser instead of failing the CRC.
func reseal(data []byte) []byte {
	if len(data) < 32 {
		return data
	}
	out := slices.Clone(data)
	binary.NativeEndian.PutUint64(out[24:], uint64(len(out)))
	body := len(out) - 4
	binary.NativeEndian.PutUint32(out[body:], crc32.Checksum(out[:body], crc32.MakeTable(crc32.Castagnoli)))
	return out
}

// TestTierFileRoundTrip: what Write writes, Read reads back bit for bit
// (written again, it is the same bytes); and each reason not to use a
// file is reported as its own error.
func TestTierFileRoundTrip(t *testing.T) {
	g := buildFixture()
	stamp := retrieval.Stamp{StoreID: 7, LastSeq: 3}
	path := filepath.Join(t.TempDir(), "retrieval.iypv")
	writeTier(t, path, retrieval.Build(g.View()), stamp)
	got, err := retrieval.Read(path, stamp, g.View())
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tierBytes(t, got, stamp), want) {
		t.Fatal("the tier read back writes different bytes")
	}

	for _, c := range []struct {
		name  string
		path  string
		stamp retrieval.Stamp
		want  error
	}{
		{"missing", path + ".gone", stamp, retrieval.ErrNoTier},
		{"other base", path, retrieval.Stamp{StoreID: 7, LastSeq: 4}, retrieval.ErrStale},
		{"other store", path, retrieval.Stamp{StoreID: 8, LastSeq: 3}, retrieval.ErrStale},
	} {
		if _, err := retrieval.Read(c.path, c.stamp, g.View()); !errors.Is(err, c.want) {
			t.Errorf("%s: Read error %v, want %v", c.name, err, c.want)
		}
	}
}

// TestTierFileRejects: a damaged file is corrupt, and a file whose
// graph no longer describes its nodes the same way has drifted.
func TestTierFileRejects(t *testing.T) {
	g := tinyGraph()
	stamp := retrieval.Stamp{StoreID: 1}
	data := tierBytes(t, retrieval.Build(g.View()), stamp)
	if _, err := retrieval.Parse(slices.Clone(data), stamp, g.View()); err != nil {
		t.Fatal(err)
	}
	flipped := slices.Clone(data)
	flipped[len(flipped)/2] ^= 0x10
	for name, bad := range map[string][]byte{
		"empty":     nil,
		"truncated": data[:len(data)-1],
		"bit flip":  flipped,
		"garbage":   bytes.Repeat([]byte{0xa5}, len(data)),
	} {
		if _, err := retrieval.Parse(bad, stamp, g.View()); !errors.Is(err, retrieval.ErrCorrupt) {
			t.Errorf("%s: error %v, want %v", name, err, retrieval.ErrCorrupt)
		}
	}

	renamed := tinyGraph()
	if err := renamed.SetNodeProp(1, "name", "Renamed"); err != nil {
		t.Fatal(err)
	}
	grown := tinyGraph()
	grown.MustCreateNode([]string{"AS"}, map[string]any{"asn": int64(1)})
	for name, other := range map[string]*graph.Graph{"renamed": renamed, "grown": grown} {
		if _, err := retrieval.Parse(slices.Clone(data), stamp, other.View()); !errors.Is(err, retrieval.ErrDrift) {
			t.Errorf("%s: error %v, want %v", name, err, retrieval.ErrDrift)
		}
	}
}

// TestTierFileReadRejects: Read, which maps the file, reports an empty
// file and one cut inside a section as corrupt, without a fault.
func TestTierFileReadRejects(t *testing.T) {
	g := tinyGraph()
	stamp := retrieval.Stamp{StoreID: 1}
	data := tierBytes(t, retrieval.Build(g.View()), stamp)
	dir := t.TempDir()
	for _, c := range []struct {
		name string
		data []byte
		want error
		text string
	}{
		{"empty", nil, retrieval.ErrCorrupt, "bad magic"},
		{"cut", data[:len(data)/2], retrieval.ErrCorrupt, "file size mismatch"},
		{"cut and resealed", reseal(data[:len(data)/2]), retrieval.ErrCorrupt, "exceeds the file"},
	} {
		path := filepath.Join(dir, c.name)
		if err := os.WriteFile(path, c.data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := retrieval.Read(path, stamp, g.View())
		if !errors.Is(err, c.want) || !strings.Contains(err.Error(), c.text) {
			t.Errorf("%s: Read error %v, want %v saying %q", c.name, err, c.want, c.text)
		}
	}
}

// TestTierFileReadAllocs: reading a tier and indexing it allocates well
// under the file's size, as the slab, the IDs, the texts and the
// document frequencies stay in the mapping; a read into the heap
// allocates the whole file. What it does allocate is the docs, the
// embedder's bucket starts and the validation's listing of the
// describable nodes: 13% of this fixture's file, where a map of the IDF
// weights took it to 29%.
func TestTierFileReadAllocs(t *testing.T) {
	g := buildFixture()
	stamp := retrieval.Stamp{StoreID: 1}
	path := filepath.Join(t.TempDir(), "retrieval.iypv")
	writeTier(t, path, retrieval.Build(g.View()), stamp)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tier, err := retrieval.Read(path, stamp, g.View())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vector.NewIndexFromSlab(tier.Embedder.Dim(), tier.Docs, tier.Slab); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= uint64(st.Size())/6 {
		t.Fatalf("reading and indexing a %d-byte tier file allocated %d bytes, want under a sixth of it", st.Size(), grew)
	}
}

// TestTierFileHugeCounts: header counts far beyond the file are
// rejected before anything is allocated from them.
func TestTierFileHugeCounts(t *testing.T) {
	g := tinyGraph()
	stamp := retrieval.Stamp{StoreID: 1}
	data := tierBytes(t, retrieval.Build(g.View()), stamp)
	for _, off := range []int{52, 56, 64, 72, 80} { // kinds, docs, pairs, fit docs, blob
		for _, n := range []uint64{1 << 20, 1 << 40, math.MaxUint64} {
			bad := slices.Clone(data)
			if off == 52 {
				binary.NativeEndian.PutUint32(bad[off:], uint32(n))
			} else {
				binary.NativeEndian.PutUint64(bad[off:], n)
			}
			bad = reseal(bad)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := retrieval.Parse(bad, stamp, g.View())
			runtime.ReadMemStats(&after)
			if !errors.Is(err, retrieval.ErrCorrupt) {
				t.Errorf("count %d at offset %d: error %v, want %v", n, off, err, retrieval.ErrCorrupt)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
				t.Errorf("count %d at offset %d: parsing allocated %d bytes", n, off, grew)
			}
		}
	}
}

// FuzzReadTier: no input panics the decoder, each failure names one of
// the four reasons, and a file that passes is the tier of the graph.
// Every input is tried as is and resealed (size and CRC fixed up), so
// that mutations reach the section parser.
func FuzzReadTier(f *testing.F) {
	g := tinyGraph()
	stamp := retrieval.Stamp{StoreID: 1}
	want := retrieval.Build(g.View())
	data := tierBytes(f, want, stamp)
	f.Add(data)
	f.Add(data[:len(data)/2])
	f.Add(data[:100])
	huge := slices.Clone(data)
	binary.NativeEndian.PutUint64(huge[56:], 1<<62)
	f.Add(reseal(huge))
	f.Fuzz(func(t *testing.T, in []byte) {
		for _, b := range [][]byte{in, reseal(in)} {
			tier, err := retrieval.Parse(slices.Clone(b), stamp, g.View())
			if err != nil {
				n := 0
				for _, reason := range []error{retrieval.ErrNoTier, retrieval.ErrStale, retrieval.ErrCorrupt, retrieval.ErrDrift} {
					if errors.Is(err, reason) {
						n++
					}
				}
				if n != 1 {
					t.Fatalf("error %v wraps %d reasons, want 1", err, n)
				}
				continue
			}
			if len(tier.Docs) != len(want.Docs) || len(tier.Slab) != len(want.Slab) {
				t.Fatalf("accepted a tier of %d docs and %d values, the graph's has %d and %d",
					len(tier.Docs), len(tier.Slab), len(want.Docs), len(want.Slab))
			}
		}
	})
}
