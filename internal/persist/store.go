package persist

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"chatiyp/internal/graph"
	"chatiyp/internal/mmap"
	"chatiyp/internal/retrieval"
)

// File names inside a data directory.
const (
	baseName = "base.iypc"
	walName  = "wal.iypw"
	tierName = "retrieval.iypv"
)

// BasePath returns the base-snapshot path inside dir.
func BasePath(dir string) string { return filepath.Join(dir, baseName) }

// TierPath returns the retrieval-tier path inside dir: the tier of the
// base snapshot's graph, stamped with the base's identity.
func TierPath(dir string) string { return filepath.Join(dir, tierName) }

// WALPath returns the journal path inside dir.
func WALPath(dir string) string { return filepath.Join(dir, walName) }

// Options configures a Store.
type Options struct {
	// Fsync selects the journal's durability policy (default
	// FsyncAlways).
	Fsync FsyncPolicy
	// FsyncInterval is the timer period for FsyncInterval (default
	// 100ms).
	FsyncInterval time.Duration
	// CheckpointBytes triggers an automatic checkpoint once the
	// journal grows past it; 0 disables auto-checkpointing.
	CheckpointBytes int64
	// VerifyChecksums validates every base-snapshot section CRC at
	// open. Costs one pass over the file; recommended.
	VerifyChecksums bool
}

// Store binds a graph to a data directory: base columnar snapshot +
// WAL, and beside the base the retrieval tier built from it. All writes
// to the graph after Open are journaled via the write observer (called
// under the graph mutex, so journal order is apply order); Checkpoint
// rewrites the tier and the base from one pinned View and drops the
// absorbed journal prefix.
type Store struct {
	dir     string
	opts    Options
	g       *graph.Graph
	wal     *WAL
	mapping *mmap.Mapping
	storeID uint64

	// attachSeq/attachVer pin the WAL sequence ↔ graph version
	// correspondence at the moment the observer was attached (after
	// replay). The graph bumps its version exactly once per journaled
	// mutation, so for any later View v:
	//   seq(v) = attachSeq + (v.Version() - attachVer)
	attachSeq uint64
	attachVer uint64

	replayed int

	// tier is the retrieval tier Open read, nil when tierErr says why
	// not; tierRead is how long reading and validating it took, on
	// whichever goroutine.
	tier     *retrieval.Tier
	tierErr  error
	tierRead time.Duration

	ckptMu   sync.Mutex // serializes checkpoints
	ckptBusy atomic.Bool
	closed   atomic.Bool

	errMu    sync.Mutex
	firstErr error

	stopSync chan struct{}
	syncDone chan struct{}
	wg       sync.WaitGroup
}

// Init seeds dir with a base snapshot of g, its retrieval tier and a
// fresh store identity. It fails if dir already holds a base snapshot.
// The caller typically follows with Open on the same directory.
func Init(dir string, g *graph.Graph) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := BasePath(dir)
	if _, err := os.Stat(base); err == nil {
		return fmt.Errorf("persist: %s already initialized", dir)
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	var idb [8]byte
	if _, err := rand.Read(idb[:]); err != nil {
		return err
	}
	id := binary.NativeEndian.Uint64(idb[:])
	if id == 0 {
		id = 1 // 0 means "any store" in scanWAL
	}
	v := g.View()
	if err := writeTier(dir, v, retrieval.Stamp{StoreID: id}); err != nil {
		return err
	}
	if err := writeFileAtomic(base, func(f *os.File) error {
		data, err := v.MarshalColumnar(graph.ColMeta{LastSeq: 0, StoreID: id})
		if err != nil {
			return err
		}
		_, err = f.Write(data)
		return err
	}); err != nil {
		return err
	}
	syncDir(dir)
	return nil
}

// writeTier builds the retrieval tier of v and writes it to dir under
// stamp, atomically. Init and Checkpoint write it before the base: a
// crash between the two leaves a tier whose stamp the base does not
// carry, which Open reports as stale.
func writeTier(dir string, v *graph.View, stamp retrieval.Stamp) error {
	tier := retrieval.Build(v)
	return writeFileAtomic(TierPath(dir), func(f *os.File) error { return tier.Write(f, stamp) })
}

// Open loads the graph from dir (mmap base + replay WAL), reads the
// retrieval tier beside the base (see Retrieval) and starts journaling
// all subsequent writes. The returned Store owns the file mapping; it
// stays mapped for the life of the process because the graph's first
// epoch aliases it.
//
// The boot runs on two cores: the half of the tier read that needs no
// graph (retrieval.Open: the mapping, the checksum, the header, the
// document frequencies and the embedder fit) runs on its own goroutine
// while the base decodes, itself beside its section checksums (see
// graph.LoadColumnarBytes). The rest of the tier's checks need the
// graph and run after both. Every return joins the goroutine.
func Open(dir string, opts Options) (*Store, error) {
	if opts.FsyncInterval <= 0 {
		opts.FsyncInterval = 100 * time.Millisecond
	}
	// A process that died inside writeFileAtomic or a WAL compaction
	// left its temp file; the next write would truncate it, but until
	// then it holds a file's worth of disk.
	for _, path := range []string{BasePath(dir), TierPath(dir), WALPath(dir)} {
		if err := os.Remove(path + ".tmp"); err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
	}
	start := time.Now()
	type opened struct {
		f    *retrieval.File
		err  error
		took time.Duration
	}
	tierc := make(chan opened, 1)
	go func() {
		start := time.Now()
		f, err := retrieval.Open(TierPath(dir))
		tierc <- opened{f, err, time.Since(start)}
	}()
	// fail joins the tier read and drops what it mapped.
	fail := func(err error) (*Store, error) {
		if t := <-tierc; t.f != nil {
			t.f.Close()
		}
		return nil, err
	}

	mapping, err := mmap.Open(BasePath(dir))
	if err != nil {
		return fail(err)
	}
	g, info, err := graph.LoadColumnarBytes(mapping.Data, graph.ColLoadOptions{VerifyChecksums: opts.VerifyChecksums})
	if err != nil {
		mapping.Close()
		return fail(fmt.Errorf("persist: base snapshot: %w", err))
	}
	s := &Store{dir: dir, opts: opts, g: g, mapping: mapping, storeID: info.StoreID}

	wal, records, err := openWAL(WALPath(dir), info.StoreID, opts.Fsync)
	if err != nil {
		// The graph aliases the mapping; drop both — nothing escaped.
		mapping.Close()
		return fail(err)
	}
	s.wal = wal

	// Replay the journal tail. Records at or below the base snapshot's
	// LastSeq were already absorbed by a checkpoint that crashed before
	// compacting the WAL — skipping them is what makes that crash
	// window harmless.
	for _, rec := range records {
		if rec.seq <= info.LastSeq {
			continue
		}
		if err := g.ApplyMutation(rec.mut); err != nil {
			wal.Close()
			mapping.Close()
			return fail(fmt.Errorf("persist: replay seq %d: %w", rec.seq, err))
		}
		s.replayed++
	}
	replayRecords.Add(int64(s.replayed))
	// A compacted-empty WAL after a checkpoint starts its sequence
	// numbering where the base left off.
	wal.setNextSeq(info.LastSeq + 1)

	s.attachSeq = wal.NextSeq() - 1
	s.attachVer = g.Version()
	g.SetWriteObserver(s.observe)

	if opts.Fsync == FsyncInterval {
		s.stopSync = make(chan struct{})
		s.syncDone = make(chan struct{})
		go s.syncLoop()
	}
	graph.RecordLoadNanos(time.Since(start).Nanoseconds())

	// The tier is derived data: whatever is wrong with it, Open goes on
	// and the caller builds it.
	t := <-tierc
	switch {
	case s.replayed > 0:
		if t.f != nil {
			t.f.Close()
		}
		s.tierErr = fmt.Errorf("%w: replayed %d WAL records", retrieval.ErrStale, s.replayed)
	case t.err != nil:
		s.tierErr, s.tierRead = t.err, t.took
	default:
		start := time.Now()
		s.tier, s.tierErr = t.f.Validate(retrieval.Stamp{StoreID: info.StoreID, LastSeq: info.LastSeq}, g.View())
		s.tierRead = t.took + time.Since(start)
	}
	return s, nil
}

// Graph returns the store's graph.
func (s *Store) Graph() *graph.Graph { return s.g }

// Retrieval returns the retrieval tier Open read beside the base and
// how long reading and validating it took. It returns the tier only if
// the file validated against the base (retrieval.Read) and Open
// replayed no WAL record, so that it is the tier of Graph as Open
// returned it; otherwise the tier is nil and the error says why,
// wrapping retrieval.ErrNoTier, ErrStale, ErrCorrupt or ErrDrift.
func (s *Store) Retrieval() (*retrieval.Tier, time.Duration, error) {
	return s.tier, s.tierRead, s.tierErr
}

// ReplayCount reports how many WAL records Open replayed.
func (s *Store) ReplayCount() int { return s.replayed }

// StoreID returns the data directory's identity stamp.
func (s *Store) StoreID() uint64 { return s.storeID }

// WALSize returns the journal's current size in bytes.
func (s *Store) WALSize() int64 { return s.wal.Size() }

// Err returns the first background persistence failure (journal write
// or auto-checkpoint), if any. A server should surface it and stop
// accepting writes.
func (s *Store) Err() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.firstErr
}

func (s *Store) setErr(err error) {
	s.errMu.Lock()
	if s.firstErr == nil {
		s.firstErr = err
	}
	s.errMu.Unlock()
}

// observe runs under the graph mutex, once per committed mutation, in
// apply order. It must not call back into the graph (View, mutators) —
// hence auto-checkpoints are handed to a goroutine.
func (s *Store) observe(m graph.Mutation) {
	if s.closed.Load() {
		return
	}
	_, n, err := s.wal.Append(m)
	if err != nil {
		s.setErr(err)
		return
	}
	walAppends.Add(1)
	walBytes.Add(int64(n))
	if t := s.opts.CheckpointBytes; t > 0 && s.wal.Size() >= t && s.ckptBusy.CompareAndSwap(false, true) {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.ckptBusy.Store(false)
			if err := s.Checkpoint(); err != nil && !s.closed.Load() {
				s.setErr(err)
			}
		}()
	}
}

// Checkpoint rewrites the retrieval tier and then the base snapshot
// from one freshly pinned View, and compacts the journal down to the
// records the new base does not cover. Concurrent writes keep flowing:
// they land in the WAL with sequence numbers above the View's and
// survive compaction. Building the tier is most of its cost.
func (s *Store) Checkpoint() error {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	if s.closed.Load() {
		return errors.New("persist: store closed")
	}
	// Pin the View before touching any WAL state: View may take the
	// graph mutex (epoch rebuild), and the graph mutex is held around
	// WAL appends — taking them in the opposite order would deadlock.
	v := s.g.View()
	seqOfView := s.attachSeq + (v.Version() - s.attachVer)
	if err := writeTier(s.dir, v, retrieval.Stamp{StoreID: s.storeID, LastSeq: seqOfView}); err != nil {
		return err
	}
	data, err := v.MarshalColumnar(graph.ColMeta{LastSeq: seqOfView, StoreID: s.storeID})
	if err != nil {
		return err
	}
	if err := writeFileAtomic(BasePath(s.dir), func(f *os.File) error {
		_, werr := f.Write(data)
		return werr
	}); err != nil {
		return err
	}
	syncDir(s.dir)
	// A crash here leaves records ≤ seqOfView in the WAL; replay skips
	// them against the new base's LastSeq.
	if err := s.wal.CompactTo(seqOfView); err != nil {
		return err
	}
	checkpoints.Add(1)
	return nil
}

// Close detaches the observer, waits for in-flight background work,
// and flushes the journal. It does NOT checkpoint (call Checkpoint
// first for a trimmed restart) and does NOT unmap the base snapshot —
// the graph's epoch may still alias it.
func (s *Store) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	s.g.SetWriteObserver(nil)
	if s.stopSync != nil {
		close(s.stopSync)
		<-s.syncDone
	}
	s.wg.Wait()
	err := s.wal.Close()
	if e := s.Err(); err == nil {
		err = e
	}
	return err
}

func (s *Store) syncLoop() {
	defer close(s.syncDone)
	t := time.NewTicker(s.opts.FsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stopSync:
			return
		case <-t.C:
			if err := s.wal.Sync(); err != nil {
				s.setErr(err)
				return
			}
		}
	}
}

// writeFileAtomic writes via a temp file + fsync + rename so the
// destination is always either the old or the complete new content.
func writeFileAtomic(path string, fill func(*os.File) error) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}
