package persist

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"chatiyp/internal/graph"
)

// seedGraph builds the graph every store test starts from.
func seedGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g := graph.New()
	for i := 0; i < 5; i++ {
		g.MustCreateNode([]string{"AS"}, map[string]any{"asn": int64(64500 + i), "name": fmt.Sprintf("AS%d", i)})
	}
	g.CreateIndex("AS", "asn")
	return g
}

func initStoreDir(t testing.TB) string {
	t.Helper()
	dir := t.TempDir()
	if err := Init(dir, seedGraph(t)); err != nil {
		t.Fatal(err)
	}
	return dir
}

// scriptedASN hands each scriptedWrites call a disjoint ASN range so
// index lookups stay unique across batches.
var scriptedASN atomic.Int64

// scriptedWrites applies n acknowledged writes to g and returns a
// checker that asserts the first k of them are visible.
func scriptedWrites(t testing.TB, g *graph.Graph, n int) func(tb testing.TB, g2 *graph.Graph, k int) {
	t.Helper()
	base := 70000 + scriptedASN.Add(1000)
	type step struct {
		node int64
		asn  int64
	}
	steps := make([]step, 0, n)
	for i := 0; i < n; i++ {
		nd, err := g.CreateNode([]string{"AS", "Journaled"}, map[string]any{"asn": base + int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		steps = append(steps, step{node: nd.ID, asn: base + int64(i)})
	}
	return func(tb testing.TB, g2 *graph.Graph, k int) {
		tb.Helper()
		if msgs := g2.CheckIntegrity(); len(msgs) != 0 {
			tb.Fatalf("integrity after recovery: %v", msgs)
		}
		for i, st := range steps {
			nd := g2.Node(st.node)
			if i < k {
				if nd == nil {
					tb.Fatalf("acknowledged write %d (node %d) lost", i, st.node)
				}
				if got := nd.Prop("asn"); got != st.asn {
					tb.Fatalf("write %d: asn = %v", i, got)
				}
				ids, ok := g2.NodesByLabelProp("AS", "asn", st.asn)
				if !ok || len(ids) != 1 || ids[0] != st.node {
					tb.Fatalf("write %d: index lookup got %v (indexed=%v)", i, ids, ok)
				}
			} else if nd != nil {
				tb.Fatalf("unacknowledged write %d visible", i)
			}
		}
	}
}

func TestStoreOpenEmptyWAL(t *testing.T) {
	dir := initStoreDir(t)
	s, err := Open(dir, Options{Fsync: FsyncNever, VerifyChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.ReplayCount() != 0 {
		t.Fatalf("replayed %d records from fresh dir", s.ReplayCount())
	}
	if s.Graph().NodeCount() != 5 {
		t.Fatalf("node count %d", s.Graph().NodeCount())
	}
	if s.StoreID() == 0 {
		t.Fatal("store ID not stamped")
	}
}

// TestStoreCrashRecovery reopens the directory WITHOUT closing the
// first store — the file state is exactly what a killed process leaves
// behind — and requires every acknowledged write to be visible.
func TestStoreCrashRecovery(t *testing.T) {
	dir := initStoreDir(t)
	s, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	check := scriptedWrites(t, s.Graph(), 25)
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	// No Close: simulate the crash.

	s2, err := Open(dir, Options{Fsync: FsyncNever, VerifyChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.ReplayCount() != 25 {
		t.Fatalf("replayed %d records, want 25", s2.ReplayCount())
	}
	check(t, s2.Graph(), 25)
	s.Close()
}

// TestStoreCrashMatrix truncates the WAL at every byte boundary of the
// tail record region and verifies the prefix property: exactly the
// writes whose records survive intact are recovered, in order, with no
// error and no panic.
func TestStoreCrashMatrix(t *testing.T) {
	dir := initStoreDir(t)
	s, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	const writes = 8
	check := scriptedWrites(t, s.Graph(), writes)
	s.Close()

	walData, err := os.ReadFile(WALPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	// Frame boundaries let us map a byte cut to "k records intact".
	bounds := []int64{walHeaderSize}
	off := int64(walHeaderSize)
	for off < int64(len(walData)) {
		off += walFrameSize + int64(nativeU32(walData[off:]))
		bounds = append(bounds, off)
	}
	if len(bounds) != writes+1 {
		t.Fatalf("expected %d frames, found %d", writes, len(bounds)-1)
	}

	baseData, err := os.ReadFile(BasePath(dir))
	if err != nil {
		t.Fatal(err)
	}
	for cut := int64(walHeaderSize); cut <= int64(len(walData)); cut += 7 {
		k := 0
		for k < writes && bounds[k+1] <= cut {
			k++
		}
		cdir := t.TempDir()
		if err := os.WriteFile(BasePath(cdir), baseData, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(WALPath(cdir), walData[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		cs, err := Open(cdir, Options{Fsync: FsyncNever})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if cs.ReplayCount() != k {
			t.Fatalf("cut %d: replayed %d, want %d", cut, cs.ReplayCount(), k)
		}
		check(t, cs.Graph(), k)
		cs.Close()
	}
}

func TestStoreCheckpoint(t *testing.T) {
	dir := initStoreDir(t)
	s, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	check := scriptedWrites(t, s.Graph(), 10)
	preSize := s.WALSize()
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if s.WALSize() >= preSize {
		t.Fatalf("checkpoint did not compact WAL: %d -> %d", preSize, s.WALSize())
	}
	// Writes after the checkpoint land in the compacted WAL.
	check2 := scriptedWrites(t, s.Graph(), 5)
	s.Close()

	s2, err := Open(dir, Options{Fsync: FsyncNever, VerifyChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.ReplayCount() != 5 {
		t.Fatalf("replayed %d records, want only the 5 post-checkpoint", s2.ReplayCount())
	}
	check(t, s2.Graph(), 10)
	check2(t, s2.Graph(), 5)
}

// TestStoreCheckpointCrashBeforeCompact covers the crash window between
// base-snapshot rename and WAL compaction: replay must skip records the
// new base already absorbed.
func TestStoreCheckpointCrashBeforeCompact(t *testing.T) {
	dir := initStoreDir(t)
	s, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	check := scriptedWrites(t, s.Graph(), 6)
	// Write the new base exactly as Checkpoint does, then "crash"
	// before CompactTo by simply not calling it.
	v := s.Graph().View()
	seqOfView := s.attachSeq + (v.Version() - s.attachVer)
	data, err := v.MarshalColumnar(graph.ColMeta{LastSeq: seqOfView, StoreID: s.storeID})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(BasePath(dir), data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{Fsync: FsyncNever, VerifyChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.ReplayCount() != 0 {
		t.Fatalf("replayed %d absorbed records", s2.ReplayCount())
	}
	check(t, s2.Graph(), 6)
	// And the next write sequences correctly past the absorbed prefix.
	check3 := scriptedWrites(t, s2.Graph(), 1)
	check3(t, s2.Graph(), 1)
	s.Close()
}

func TestStoreAutoCheckpoint(t *testing.T) {
	dir := initStoreDir(t)
	before := Stats().Checkpoints
	s, err := Open(dir, Options{Fsync: FsyncNever, CheckpointBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, err := s.Graph().CreateNode([]string{"AS"}, map[string]any{"asn": int64(90000 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for Stats().Checkpoints == before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if Stats().Checkpoints == before {
		t.Fatal("auto-checkpoint never fired")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{Fsync: FsyncNever, VerifyChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Graph().NodeCount(); got != 5+200 {
		t.Fatalf("node count after auto-checkpointed restart: %d", got)
	}
}

func TestStoreFsyncPolicies(t *testing.T) {
	for _, pol := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncNever} {
		dir := initStoreDir(t)
		s, err := Open(dir, Options{Fsync: pol, FsyncInterval: 5 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		check := scriptedWrites(t, s.Graph(), 3)
		if pol == FsyncInterval {
			time.Sleep(20 * time.Millisecond) // let the timer tick once
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(dir, Options{Fsync: pol})
		if err != nil {
			t.Fatal(err)
		}
		check(t, s2.Graph(), 3)
		s2.Close()
	}
}

func TestInitRefusesExistingDir(t *testing.T) {
	dir := initStoreDir(t)
	if err := Init(dir, seedGraph(t)); err == nil {
		t.Fatal("Init over an existing base snapshot succeeded")
	}
}

func TestStoreCounters(t *testing.T) {
	before := Stats()
	dir := initStoreDir(t)
	s, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	scriptedWrites(t, s.Graph(), 4)
	s.Close()
	after := Stats()
	if after.WALAppends-before.WALAppends < 4 {
		t.Fatalf("wal_appends advanced by %d", after.WALAppends-before.WALAppends)
	}
	if after.WALBytes <= before.WALBytes {
		t.Fatal("wal_bytes did not advance")
	}

	// Replay counter moves on reopen.
	s2, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	s2.Close()
	if d := Stats().ReplayRecords - after.ReplayRecords; d < 4 {
		t.Fatalf("replay_records advanced by %d", d)
	}
	if graph.LastLoadNanos() <= 0 {
		t.Fatal("graph.load_ns not recorded")
	}
}

// TestStoreOpenRemovesStaleTempFiles: a process killed inside an atomic
// write or a WAL compaction leaves a temp file of the target's size;
// Open removes those of its own files and nothing else.
func TestStoreOpenRemovesStaleTempFiles(t *testing.T) {
	dir := initStoreDir(t)
	planted := []string{BasePath(dir) + ".tmp", TierPath(dir) + ".tmp", WALPath(dir) + ".tmp"}
	foreign := filepath.Join(dir, "notes.tmp")
	for _, path := range append(planted, foreign) {
		if err := os.WriteFile(path, []byte("half-written"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := Open(dir, Options{Fsync: FsyncNever, VerifyChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, path := range planted {
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s survived Open (stat: %v)", filepath.Base(path), err)
		}
	}
	if _, err := os.Stat(foreign); err != nil {
		t.Errorf("Open removed a file it does not own: %v", err)
	}
	if tier, _, err := s.Retrieval(); tier == nil {
		t.Errorf("the tier beside the temp files was not read: %v", err)
	}
}
