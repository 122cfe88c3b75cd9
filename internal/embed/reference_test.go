package embed

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"chatiyp/internal/cyphereval"
	"chatiyp/internal/iyp"
	"chatiyp/internal/textutil"
)

// refFeature is one feature as the string-building extractor emits it.
type refFeature struct {
	h      uint32
	weight float64
}

// referenceFeatures is the extractor this package started with: it
// builds every "w:"/"c:"/"b:" feature string and hashes it with
// hash/fnv. The in-place extractor must produce the same stream.
func referenceFeatures(cfg Config, text string) []refFeature {
	hash := func(s string) uint32 {
		h := fnv.New32a()
		h.Write([]byte(s))
		return h.Sum32()
	}
	var out []refFeature
	work := textutil.ContentTokens(text)
	if cfg.StemTokens {
		work = textutil.StemAll(work)
	}
	for _, tok := range work {
		out = append(out, refFeature{hash("w:" + tok), 1.0})
		if cfg.CharNGram && len(tok) >= 3 {
			for _, g := range textutil.CharNGrams(tok, 3) {
				out = append(out, refFeature{hash("c:" + g), 0.3})
			}
		}
	}
	if cfg.Bigrams {
		for _, bg := range textutil.NGrams(work, 2) {
			out = append(out, refFeature{hash("b:" + bg), 0.7})
		}
	}
	return out
}

// referenceEmbedder is Fit and Embed over referenceFeatures, with a
// fresh seen-set per document as Fit used to keep.
type referenceEmbedder struct {
	cfg  Config
	idf  map[uint32]float64
	docs int
}

func (r *referenceEmbedder) fit(corpus []string) {
	df := map[uint32]int{}
	for _, doc := range corpus {
		seen := map[uint32]bool{}
		for _, f := range referenceFeatures(r.cfg, doc) {
			if !seen[f.h] {
				seen[f.h] = true
				df[f.h]++
			}
		}
	}
	r.docs = len(corpus)
	r.idf = make(map[uint32]float64, len(df))
	for h, n := range df {
		r.idf[h] = math.Log(1 + float64(r.docs)/float64(1+n))
	}
}

func (r *referenceEmbedder) embed(text string) Vector {
	v := make(Vector, r.cfg.Dim)
	for _, f := range referenceFeatures(r.cfg, text) {
		w := f.weight
		if r.idf != nil {
			if idf, ok := r.idf[f.h]; ok {
				w *= idf
			} else {
				w *= math.Log(1 + float64(r.docs))
			}
		}
		idx := int(f.h % uint32(r.cfg.Dim))
		if (f.h>>16)&1 == 1 {
			v[idx] += float32(w)
		} else {
			v[idx] -= float32(w)
		}
	}
	normalize(v)
	return v
}

var referenceTexts = []string{
	"",
	"x",
	"AS2497 (IIJ) is an autonomous system registered in Japan. It originates 41 prefixes.",
	"It serves 12.5% of the Internet population of Côte d'Ivoire.",
	"Ünïcödé tökens: 日本語 の テキスト, ÅÄÖ, ß, ﬁ, İstanbul",
	"192.0.2.0/24 2001:db8::/32 country_code de-cix.net a-b_c/d:e",
	"the of and", // stopwords only
	"aa bb", "abc", "日", "éa",
	"a-very-long-token-that-is-longer-than-the-sixty-four-byte-stack-buffer-of-the-trigram-walk-0123456789",
	"bad utf8 \xff\xfe in the middle \xc3",
}

func sameBits(a, b Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// TestFeaturesMatchReference: the in-place FNV fold emits the hashes
// and weights of the string-building extractor, in the same order.
func TestFeaturesMatchReference(t *testing.T) {
	configs := []Config{
		{Dim: DefaultDim, CharNGram: true, Bigrams: true, StemTokens: true},
		{Dim: 64, CharNGram: true},
		{Dim: 64, Bigrams: true},
		{Dim: 64},
	}
	check := func(cfg Config, text string) error {
		want := referenceFeatures(cfg, text)
		var got []refFeature
		New(cfg).features(text, func(h uint32, kind uint8) {
			got = append(got, refFeature{h, kindWeight[kind]})
		})
		if fmt.Sprint(got) != fmt.Sprint(want) {
			return fmt.Errorf("config %+v, text %q: features differ\n got %v\nwant %v", cfg, text, got, want)
		}
		return nil
	}
	for _, cfg := range configs {
		for _, text := range referenceTexts {
			if err := check(cfg, text); err != nil {
				t.Error(err)
			}
		}
		if err := quick.Check(func(s string) bool { return check(cfg, s) == nil }, nil); err != nil {
			t.Error(err)
		}
	}
}

// TestFitAndCorporaMatchReference: Fit, FitCorpora over the same
// documents split 1, 2, 3 and 5 ways, and FitDocFreqs of the
// frequencies FitCorpora returns give the reference IDF table bit for
// bit, and Embed and EmbedInto the reference vectors.
func TestFitAndCorporaMatchReference(t *testing.T) {
	corpus := append([]string(nil), referenceTexts...)
	for i := 0; i < 40; i++ {
		corpus = append(corpus, fmt.Sprintf("AS%d (Network %d) is an autonomous system registered in Country%d. It originates %d prefixes.", 64500+i, i%7, i%5, i*3))
	}
	cfg := NewDefault().cfg
	ref := &referenceEmbedder{cfg: cfg}
	ref.fit(corpus)

	sameIDF := func(name string, e *Embedder) {
		t.Helper()
		if e.docs != ref.docs || len(e.df) != len(ref.idf) {
			t.Fatalf("%s: %d docs, %d features; reference %d docs, %d features", name, e.docs, len(e.df), ref.docs, len(ref.idf))
		}
		for h, want := range ref.idf {
			if _, ok := e.docFreq(h); !ok || math.Float64bits(e.IDF(h)) != math.Float64bits(want) {
				t.Fatalf("%s: IDF(%#x) = %v (present %v), reference %v", name, h, e.IDF(h), ok, want)
			}
		}
	}

	serial := NewDefault()
	serial.Fit(corpus)
	sameIDF("Fit", serial)
	probes := append([]string{"which AS serves Côte d'Ivoire?", "never seen tokens zzzqqq"}, corpus...)
	for _, text := range probes {
		if got, want := serial.Embed(text), ref.embed(text); !sameBits(got, want) {
			t.Fatalf("Embed(%q) differs from the reference", text)
		}
	}

	for _, parts := range []int{1, 2, 3, 5} {
		e := NewDefault()
		corpora := make([]*Corpus, parts)
		for w := range corpora {
			corpora[w] = e.NewCorpus()
		}
		// Round-robin, so every corpus holds documents from all over.
		for i, text := range corpus {
			corpora[i%parts].Add(text)
		}
		freqs := e.FitCorpora(corpora)
		sameIDF(fmt.Sprintf("FitCorpora/%d", parts), e)
		// The returned frequencies fit the same table again, in any order.
		slices.SortFunc(freqs, func(a, b DocFreq) int { return cmp.Compare(a.Hash, b.Hash) })
		refit := NewDefault()
		refit.FitDocFreqs(freqs, len(corpus))
		sameIDF(fmt.Sprintf("FitDocFreqs/%d", parts), refit)
		dst := make(Vector, e.Dim())
		for i, text := range corpus {
			for j := range dst {
				dst[j] = 42 // EmbedInto must not depend on what dst held
			}
			corpora[i%parts].EmbedInto(i/parts, dst)
			if !sameBits(dst, ref.embed(text)) {
				t.Fatalf("%d corpora: EmbedInto(document %d) differs from the reference Embed", parts, i)
			}
		}
	}
}

// TestTierEmbeddingsMatchReference: over every document of the small
// world's retrieval tier and every question its benchmark generates, an
// embedder fitted by FitCorpora — and one fitted by FitDocFreqs on the
// sorted frequencies a tier file holds, as a boot does — embeds bit for
// bit as the reference, whose weights are a map of every pair.
func TestTierEmbeddingsMatchReference(t *testing.T) {
	g, w, err := iyp.Build(iyp.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var docs []string
	for _, d := range iyp.Describe(g) {
		docs = append(docs, d.Text)
	}
	gen := cyphereval.DefaultGenConfig()
	gen.PerTemplate = 10
	b, err := cyphereval.Generate(g, w, gen)
	if err != nil {
		t.Fatal(err)
	}
	texts := slices.Clone(docs)
	for _, q := range b.Questions {
		texts = append(texts, q.Text)
	}

	ref := &referenceEmbedder{cfg: NewDefault().cfg}
	ref.fit(docs)
	built := NewDefault()
	corpora := []*Corpus{built.NewCorpus(), built.NewCorpus()}
	for i, d := range docs {
		corpora[i%2].Add(d)
	}
	freqs := built.FitCorpora(corpora)
	if !slices.IsSortedFunc(freqs, byHash) {
		t.Fatal("FitCorpora's frequencies are not in ascending hash order")
	}
	booted := NewDefault()
	booted.FitDocFreqs(freqs, len(docs))
	for _, text := range texts {
		want := ref.embed(text)
		for name, e := range map[string]*Embedder{"FitCorpora": built, "FitDocFreqs": booted} {
			if got := e.Embed(text); !sameBits(got, want) {
				t.Fatalf("%s: Embed(%q) differs from the reference", name, text)
			}
		}
	}
	t.Logf("%d tier documents and %d questions, %d features", len(docs), len(b.Questions), len(freqs))
}
