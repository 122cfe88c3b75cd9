// Package mmap memory-maps files read-only, so the pages of a columnar
// snapshot and of a retrieval tier file are faulted in on demand by the
// kernel (and shared across processes) instead of being read and copied
// through the Go heap. On platforms without mmap support it degrades to
// reading the file into memory — same interface, same semantics, just
// without the paging win.
package mmap

import "os"

// Mapping is a read-only view of a file's contents. Data must not be
// written to; it stays valid until Close. A Mapping whose Data has
// been handed to graph.LoadColumnarBytes must NOT be closed while the
// graph is alive — the graph's epoch aliases the mapped bytes — and one
// that retrieval.Read validated is never closed: the tier, and every
// vector index over it, alias its bytes for the life of the process.
type Mapping struct {
	Data []byte
	// munmap releases the mapping; nil for the read-into-heap
	// fallback (the GC owns the buffer).
	munmap func() error
}

// Open maps the file at path read-only.
func Open(path string) (*Mapping, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size() == 0 {
		return &Mapping{}, nil
	}
	return mapFile(f, st.Size())
}

// Close releases the mapping. After Close, Data must not be touched.
func (m *Mapping) Close() error {
	if m.munmap != nil {
		err := m.munmap()
		m.munmap = nil
		m.Data = nil
		return err
	}
	m.Data = nil
	return nil
}
