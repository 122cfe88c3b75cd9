// Package embed implements a deterministic text embedding model used in
// place of a neural sentence encoder: feature-hashed word and character
// n-grams with optional IDF weighting, L2-normalized into fixed-width
// dense vectors.
//
// The embedder has the two properties the ChatIYP reproduction needs
// from an embedding model: (1) semantically related texts — paraphrases
// sharing vocabulary and morphology — land close in cosine space, and
// (2) identical input always produces the identical vector, keeping the
// evaluation reproducible.
package embed

import (
	"cmp"
	"math"
	"slices"
	"unicode/utf8"

	"chatiyp/internal/textutil"
)

// DefaultDim is the default embedding width. 256 dimensions keeps hash
// collisions rare for IYP-scale vocabularies while staying cheap to
// scan.
const DefaultDim = 256

// Vector is a dense embedding.
type Vector []float32

// Dot returns the inner product of two vectors of equal length.
func (v Vector) Dot(o Vector) float64 {
	var s float64
	for i := range v {
		s += float64(v[i]) * float64(o[i])
	}
	return s
}

// Norm returns the L2 norm.
func (v Vector) Norm() float64 {
	var s float64
	for _, x := range v {
		s += float64(x) * float64(x)
	}
	return math.Sqrt(s)
}

// Cosine returns the cosine similarity in [-1, 1]; zero vectors yield 0.
func (v Vector) Cosine(o Vector) float64 {
	nv, no := v.Norm(), o.Norm()
	if nv == 0 || no == 0 {
		return 0
	}
	return v.Dot(o) / (nv * no)
}

// Clone returns a copy of the vector.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Config tunes the embedder.
type Config struct {
	// Dim is the vector width; 0 means DefaultDim.
	Dim int
	// CharNGram enables character trigram features inside tokens,
	// which makes near-spellings ("peering"/"peers") similar.
	CharNGram bool
	// Bigrams enables word-bigram features, which capture local phrase
	// structure ("autonomous system", "country code").
	Bigrams bool
	// StemTokens folds morphological variants before hashing.
	StemTokens bool
}

// Embedder converts text into vectors. It is safe for concurrent use
// after Fit (or immediately, if IDF weighting is not fitted).
type Embedder struct {
	cfg Config
	// df is the fitted corpus's document frequencies in ascending hash
	// order, the table the inverse-document-frequency weights are read
	// from; nil disables IDF (all features weigh 1). start[b] is the
	// first pair whose hash has top bits b (see docFreq).
	df    []DocFreq
	start []uint32
	shift uint
	// weight[n] is the weight of a feature in n documents, for small n.
	weight []float64
	docs   int
	// unseenIDF weighs a feature the fitted corpus never showed like a
	// rare term: log(1 + docs).
	unseenIDF float64
}

// New returns an embedder with the given configuration.
func New(cfg Config) *Embedder {
	if cfg.Dim <= 0 {
		cfg.Dim = DefaultDim
	}
	return &Embedder{cfg: cfg}
}

// NewDefault returns an embedder with the configuration used throughout
// the ChatIYP pipeline: 256 dims, char n-grams, bigrams, stemming.
func NewDefault() *Embedder {
	return New(Config{CharNGram: true, Bigrams: true, StemTokens: true})
}

// Dim returns the vector width.
func (e *Embedder) Dim() int { return e.cfg.Dim }

// The three feature kinds, their base weights, and the FNV-1a state
// after their "w:" / "c:" / "b:" prefix. A feature's hash is FNV-1a of
// prefix+text; folding the text into the prefix state gives the same
// 32 bits without building the string or a hash.Hash32.
const (
	kindWord uint8 = iota
	kindChar
	kindBigram
)

var (
	kindWeight = [...]float64{kindWord: 1.0, kindChar: 0.3, kindBigram: 0.7}
	kindSeed   = [...]uint32{
		kindWord:   fnvString(fnvOffset32, "w:"),
		kindChar:   fnvString(fnvOffset32, "c:"),
		kindBigram: fnvString(fnvOffset32, "b:"),
	}
)

const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

func fnvByte(h uint32, b byte) uint32 { return (h ^ uint32(b)) * fnvPrime32 }

func fnvString(h uint32, s string) uint32 {
	for i := 0; i < len(s); i++ {
		h = fnvByte(h, s[i])
	}
	return h
}

// features extracts the hashed feature stream of a text: per token its
// word feature and then its character trigrams, and after the last
// token the word bigrams. Embed adds float32s in this order, so the
// order is part of the vector's bits.
func (e *Embedder) features(text string, fn func(h uint32, kind uint8)) {
	work := textutil.ContentTokens(text)
	if e.cfg.StemTokens {
		for i, tok := range work {
			work[i] = textutil.Stem(tok)
		}
	}
	for _, tok := range work {
		fn(fnvString(kindSeed[kindWord], tok), kindWord)
		if e.cfg.CharNGram && len(tok) >= 3 {
			charTrigrams(tok, fn)
		}
	}
	if e.cfg.Bigrams {
		for i := 0; i+1 < len(work); i++ {
			h := fnvString(kindSeed[kindBigram], work[i])
			fn(fnvString(fnvByte(h, ' '), work[i+1]), kindBigram)
		}
	}
}

// charTrigrams hashes the rune trigrams of "^"+tok+"$" (see
// textutil.CharNGrams) by sliding three rune boundaries over the padded
// bytes. tok holds at least three bytes, so there is at least one.
func charTrigrams(tok string, fn func(h uint32, kind uint8)) {
	var buf [64]byte // longer tokens spill to the heap
	padded := append(append(append(buf[:0], '^'), tok...), '$')
	next := func(p int) int {
		if padded[p] < utf8.RuneSelf {
			return p + 1
		}
		_, size := utf8.DecodeRune(padded[p:])
		return p + size
	}
	p0, p1 := 0, 1
	for p2 := next(p1); p2 < len(padded); {
		p3 := next(p2)
		h := kindSeed[kindChar]
		for _, b := range padded[p0:p3] {
			h = fnvByte(h, b)
		}
		fn(h, kindChar)
		p0, p1, p2 = p1, p2, p3
	}
}

// docFreq counts, per feature, the documents it occurs in. last is the
// number of the last document that counted the feature, which stands in
// for a per-document set of features already seen.
type docFreq struct {
	m    map[uint32]dfEntry
	docs int32
}

type dfEntry struct{ n, last int32 }

func (d *docFreq) add(h uint32) {
	if x := d.m[h]; x.last != d.docs {
		d.m[h] = dfEntry{n: x.n + 1, last: d.docs}
	}
}

// Fit computes IDF weights over a document corpus. Calling Fit replaces
// any previous fit. Embedding quality improves because corpus-frequent
// features (schema boilerplate) stop dominating the vectors.
func (e *Embedder) Fit(corpus []string) {
	df := docFreq{m: make(map[uint32]dfEntry)}
	for _, doc := range corpus {
		df.docs++
		e.features(doc, func(h uint32, _ uint8) { df.add(h) })
	}
	e.setIDF(docFreqs(df.m), int(df.docs))
}

// DocFreq is the number of documents of a fitted corpus that contain
// one feature, by the feature's hash.
type DocFreq struct {
	Hash uint32
	N    uint32
}

// docFreqs lists the document frequencies of m in ascending hash order.
func docFreqs(m map[uint32]dfEntry) []DocFreq {
	out := make([]DocFreq, 0, len(m))
	for h, x := range m {
		out = append(out, DocFreq{Hash: h, N: uint32(x.n)})
	}
	slices.SortFunc(out, byHash)
	return out
}

func byHash(a, b DocFreq) int { return cmp.Compare(a.Hash, b.Hash) }

// FitDocFreqs installs the IDF weights of document frequencies counted
// over docs documents: the weights Fit computes from the corpus they
// were counted in, bit for bit, since both end in setIDF. Frequencies
// already in ascending hash order (a tier file's are) are kept as they
// are, not copied: the caller must not modify them afterwards.
func (e *Embedder) FitDocFreqs(df []DocFreq, docs int) { e.setIDF(df, docs) }

// weightsCached is how many document counts setIDF computes the weight
// of up front: most features occur in few documents.
const weightsCached = 256

// setIDF installs the weights for document frequencies df over docs
// documents. The pairs are searched, not copied into a table: building
// a map of the pairs of a large corpus costs milliseconds at every
// boot, and a tier file's pairs are already sorted. What it builds is
// small: the bucket starts of the search and the weights of the most
// common document counts.
func (e *Embedder) setIDF(df []DocFreq, docs int) {
	if !slices.IsSortedFunc(df, byHash) {
		df = slices.SortedFunc(slices.Values(df), byHash)
	}
	if df == nil {
		df = []DocFreq{} // fitted on a corpus without features
	}
	e.df, e.docs = df, docs
	e.unseenIDF = math.Log(1 + float64(docs))
	e.weight = make([]float64, weightsCached)
	for n := range e.weight {
		e.weight[n] = idfOf(docs, uint32(n))
	}
	// About eight pairs per bucket.
	bits := uint(0)
	for len(df)>>(bits+3) > 0 && bits < 24 {
		bits++
	}
	e.shift = 32 - bits
	e.start = make([]uint32, 1<<bits+1)
	for _, x := range df {
		e.start[x.Hash>>e.shift+1]++
	}
	for b := 1; b < len(e.start); b++ {
		e.start[b] += e.start[b-1]
	}
}

// idfOf is the weight of a feature in n of docs documents.
func idfOf(docs int, n uint32) float64 { return math.Log(1 + float64(docs)/float64(1+n)) }

// Fitted reports whether IDF weights are loaded.
func (e *Embedder) Fitted() bool { return e.df != nil }

// Config returns the embedder's configuration, Dim filled in.
func (e *Embedder) Config() Config { return e.cfg }

// IDF returns the weight a fitted embedder gives feature hash h: its
// inverse document frequency, or the unseen-feature weight.
func (e *Embedder) IDF(h uint32) float64 {
	n, ok := e.docFreq(h)
	switch {
	case !ok:
		return e.unseenIDF
	case n < weightsCached:
		return e.weight[n]
	}
	return idfOf(e.docs, n)
}

// docFreq finds the document frequency of feature h. Feature hashes are
// uniform over 32 bits, so the pairs sharing h's top bits — the bucket
// an interpolation search would probe first — are a handful, found
// from start and scanned in place.
func (e *Embedder) docFreq(h uint32) (uint32, bool) {
	b := h >> e.shift
	for _, x := range e.df[e.start[b]:e.start[b+1]] {
		if x.Hash >= h {
			return x.N, x.Hash == h
		}
	}
	return 0, false
}

// Embed converts text to an L2-normalized vector. Empty or
// stopword-only text yields the zero vector.
func (e *Embedder) Embed(text string) Vector {
	v := make(Vector, e.cfg.Dim)
	e.features(text, func(h uint32, kind uint8) { e.accumulate(v, h, kind) })
	normalize(v)
	return v
}

// accumulate adds one weighted feature to v.
func (e *Embedder) accumulate(v Vector, h uint32, kind uint8) {
	w := kindWeight[kind]
	if e.df != nil {
		w *= e.IDF(h)
	}
	// Signed feature hashing: a second hash decides the sign, which
	// keeps the expectation of collisions at zero.
	idx := int(h % uint32(e.cfg.Dim))
	if (h>>16)&1 == 1 {
		v[idx] += float32(w)
	} else {
		v[idx] -= float32(w)
	}
}

// Corpus holds the hashed features of a run of documents, extracted
// once, so that a corpus can be fitted and then embedded without
// tokenizing any document twice. A Corpus is used by one goroutine at a
// time; a parallel build gives every worker its own and fits them
// together with FitCorpora.
type Corpus struct {
	e      *Embedder
	df     docFreq
	hashes []uint32
	kinds  []uint8
	ends   []int // ends[i] is len(hashes) after document i
}

// NewCorpus returns an empty corpus for this embedder's configuration.
func (e *Embedder) NewCorpus() *Corpus {
	return &Corpus{e: e, df: docFreq{m: make(map[uint32]dfEntry)}}
}

// Add extracts the features of one more document.
func (c *Corpus) Add(text string) {
	c.df.docs++
	c.e.features(text, func(h uint32, kind uint8) {
		c.df.add(h)
		c.hashes = append(c.hashes, h)
		c.kinds = append(c.kinds, kind)
	})
	c.ends = append(c.ends, len(c.hashes))
}

// Len returns the number of documents added.
func (c *Corpus) Len() int { return len(c.ends) }

// FitCorpora computes IDF weights over the documents of all the given
// corpora, exactly as Fit would over their texts in any order: document
// frequencies are integer counts, so summing the per-corpus counts is
// independent of how the documents were split. It returns the summed
// frequencies, in ascending hash order, for FitDocFreqs to fit again.
func (e *Embedder) FitCorpora(corpora []*Corpus) []DocFreq {
	var df map[uint32]dfEntry
	docs := 0
	for _, c := range corpora {
		docs += c.Len()
		if df == nil {
			df = c.df.m
			continue
		}
		for h, x := range c.df.m {
			df[h] = dfEntry{n: df[h].n + x.n}
		}
	}
	freqs := docFreqs(df)
	e.setIDF(freqs, docs)
	return freqs
}

// EmbedInto writes the vector Embed would return for document i into
// dst, which must be Dim wide: the same features, weighted and added in
// the same order, so the result is bit-identical.
func (c *Corpus) EmbedInto(i int, dst Vector) {
	clear(dst)
	lo := 0
	if i > 0 {
		lo = c.ends[i-1]
	}
	for j := lo; j < c.ends[i]; j++ {
		c.e.accumulate(dst, c.hashes[j], c.kinds[j])
	}
	normalize(dst)
}

// Similarity is a convenience for Embed(a).Cosine(Embed(b)).
func (e *Embedder) Similarity(a, b string) float64 {
	return e.Embed(a).Cosine(e.Embed(b))
}

func normalize(v Vector) {
	n := v.Norm()
	if n == 0 {
		return
	}
	inv := 1 / n
	for i := range v {
		v[i] = float32(float64(v[i]) * inv)
	}
}
