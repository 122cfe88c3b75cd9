// Package retrieval builds the retrieval tier behind ChatIYP's vector
// fallback — the node descriptions, the embedder fitted on them and
// their vectors — and stores it in a file beside a data directory's base
// snapshot (tierfile.go), so that a boot reads the tier instead of
// rebuilding it.
package retrieval

import (
	"runtime"
	"sync"
	"sync/atomic"

	"chatiyp/internal/embed"
	"chatiyp/internal/graph"
	"chatiyp/internal/iyp"
	"chatiyp/internal/vector"
)

// Tier is the retrieval tier of one graph state. Nothing writes Docs or
// Slab once Build or Read returns them: a pipeline's index
// (core.Config.Retrieval) borrows them read-only, so one tier serves
// any number of pipelines.
type Tier struct {
	// Embedder is fitted on the texts of Docs.
	Embedder *embed.Embedder
	// Docs describe the nodes of iyp.DescribableNodes, in that order.
	Docs []vector.Doc
	// Slab holds the vector of Docs[i] at [i*dim, (i+1)*dim) as the
	// embedder computed it and vector.Normalize normalized it: the rows
	// vector.NewIndexFromSlab takes.
	Slab []float32
	// DocFreqs are the document frequencies Embedder was fitted on,
	// counted over len(Docs) documents.
	DocFreqs []embed.DocFreq
}

// buildChunk is how many consecutive describable nodes a worker claims
// at a time: small enough that the long AS descriptions at the low IDs
// spread over all workers, large enough that claiming costs nothing.
const buildChunk = 256

// Build renders, fits and embeds the node descriptions of v — what
// iyp.Describe, Embedder.Fit and one Embed and one vector.Normalize per
// description compute — once, on GOMAXPROCS goroutines, as a two-phase
// fork-join over ID-ordered chunks of the describable nodes.
//
// Phase 1: each worker renders the descriptions of the chunks it claims
// and extracts their hashed features into its own embed.Corpus. The
// barrier sums the per-worker document frequencies into the IDF table.
// Phase 2: each worker weights and accumulates the vectors of its own
// documents into their rows of one slab, and normalizes each row.
//
// The result does not depend on the worker count or on which worker
// claimed which chunk: docs[i] and row i belong to the i-th describable
// node, document frequencies are integer sums, and every vector is
// accumulated by one goroutine in Embed's feature order. It is
// bit-identical to the serial functions, which stay exported as the
// reference TestParallelBuildEqualsSerial compares against.
func Build(view *graph.View) *Tier {
	nodes := iyp.DescribableNodes(view)
	emb := embed.NewDefault()
	dim := emb.Dim()
	docs := make([]vector.Doc, len(nodes))
	slab := make([]float32, len(nodes)*dim)

	workers := min(runtime.GOMAXPROCS(0), (len(nodes)+buildChunk-1)/buildChunk)
	workers = max(workers, 1)
	corpora := make([]*embed.Corpus, workers)
	owned := make([][]int, workers) // owned[w][j]: the node of corpora[w]'s document j
	var next atomic.Int64
	forkJoin(workers, func(w int) {
		corpus := emb.NewCorpus()
		for {
			lo := int(next.Add(buildChunk)) - buildChunk
			if lo >= len(nodes) {
				break
			}
			for i := lo; i < min(lo+buildChunk, len(nodes)); i++ {
				d := iyp.DescribeNode(view, nodes[i])
				docs[i] = vector.Doc{ID: d.NodeID, Text: d.Text, Kind: d.Label}
				corpus.Add(d.Text)
				owned[w] = append(owned[w], i)
			}
		}
		corpora[w] = corpus
	})
	freqs := emb.FitCorpora(corpora)
	forkJoin(workers, func(w int) {
		for j, i := range owned[w] {
			row := slab[i*dim : (i+1)*dim]
			corpora[w].EmbedInto(j, row)
			vector.Normalize(row)
		}
	})
	return &Tier{Embedder: emb, Docs: docs, Slab: slab, DocFreqs: freqs}
}

// forkJoin runs fn(0) … fn(n-1) concurrently and waits for all of them;
// a single call runs inline.
func forkJoin(n int, fn func(w int)) {
	if n == 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(w)
		}()
	}
	wg.Wait()
}
