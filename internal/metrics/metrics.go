// Package metrics implements the four answer-quality metrics the paper
// compares (Figure 2a) — BLEU, ROUGE, BERTScore and G-Eval — plus the
// summary statistics, histogram and correlation machinery the
// evaluation harness uses to regenerate the figures.
//
// It also provides the runtime Counter/Registry the serving path
// reports into (questions asked, Cypher executions, plan-cache hits and
// misses); the server exposes a snapshot at /v1/metrics.
package metrics

import (
	"math"

	"chatiyp/internal/embed"
	"chatiyp/internal/llm"
	"chatiyp/internal/textutil"
)

// BLEU computes sentence-level BLEU-4 with uniform n-gram weights and
// the standard brevity penalty, smoothed by adding one to higher-order
// counts so short technical answers don't collapse to hard zero
// (Lin-Och smoothing). Scores are in [0, 1].
func BLEU(candidate, reference string) float64 {
	cand := textutil.Tokenize(candidate)
	ref := textutil.Tokenize(reference)
	if len(cand) == 0 || len(ref) == 0 {
		return 0
	}
	logSum := 0.0
	for n := 1; n <= 4; n++ {
		matched, total := textutil.CountOverlap(textutil.NGrams(cand, n), textutil.NGrams(ref, n))
		var p float64
		switch {
		case total == 0:
			// Candidate shorter than n: treat as the smoothed minimum.
			p = 1.0 / float64(2*len(cand)+2)
		case n == 1:
			if matched == 0 {
				return 0 // no unigram overlap at all
			}
			p = float64(matched) / float64(total)
		default:
			p = (float64(matched) + 1) / (float64(total) + 1)
		}
		logSum += math.Log(p)
	}
	precision := math.Exp(logSum / 4)
	bp := 1.0
	if len(cand) < len(ref) {
		bp = math.Exp(1 - float64(len(ref))/float64(len(cand)))
	}
	return clamp01(precision * bp)
}

// RougeScores holds the recall-oriented ROUGE family.
type RougeScores struct {
	Rouge1 float64 // unigram F1
	Rouge2 float64 // bigram F1
	RougeL float64 // LCS F1
}

// ROUGE computes ROUGE-1, ROUGE-2 and ROUGE-L F-measures.
func ROUGE(candidate, reference string) RougeScores {
	cand := textutil.Tokenize(candidate)
	ref := textutil.Tokenize(reference)
	var s RougeScores
	if len(cand) == 0 || len(ref) == 0 {
		return s
	}
	s.Rouge1 = ngramF1(cand, ref, 1)
	s.Rouge2 = ngramF1(cand, ref, 2)
	lcs := float64(textutil.LongestCommonSubsequence(cand, ref))
	if lcs > 0 {
		p := lcs / float64(len(cand))
		r := lcs / float64(len(ref))
		s.RougeL = 2 * p * r / (p + r)
	}
	return s
}

func ngramF1(cand, ref []string, n int) float64 {
	cg := textutil.NGrams(cand, n)
	rg := textutil.NGrams(ref, n)
	if len(cg) == 0 || len(rg) == 0 {
		return 0
	}
	matched, _ := textutil.CountOverlap(cg, rg)
	if matched == 0 {
		return 0
	}
	p := float64(matched) / float64(len(cg))
	r := float64(matched) / float64(len(rg))
	return 2 * p * r / (p + r)
}

// BERTScorer computes BERTScore-style greedy token alignment over
// contextual-ish embeddings. In place of a transformer, each token is
// embedded with the deterministic feature-hashing embedder (character
// n-grams make morphological variants similar, which is the property
// BERTScore exploits); precision/recall greedily align candidate and
// reference tokens by cosine similarity.
type BERTScorer struct {
	emb *embed.Embedder
}

// NewBERTScorer builds a scorer with the default embedder.
func NewBERTScorer() *BERTScorer {
	return &BERTScorer{emb: embed.NewDefault()}
}

// BERTScoreResult carries precision, recall and F1 in [0, 1].
type BERTScoreResult struct {
	Precision float64
	Recall    float64
	F1        float64
}

// Score computes the BERTScore of candidate against reference.
func (b *BERTScorer) Score(candidate, reference string) BERTScoreResult {
	candToks := textutil.Tokenize(candidate)
	refToks := textutil.Tokenize(reference)
	if len(candToks) == 0 || len(refToks) == 0 {
		return BERTScoreResult{}
	}
	candVecs := b.tokenVectors(candToks)
	refVecs := b.tokenVectors(refToks)
	var res BERTScoreResult
	// Precision: each candidate token greedily matches its best
	// reference token.
	var pSum float64
	for _, cv := range candVecs {
		best := 0.0
		for _, rv := range refVecs {
			if s := cv.Cosine(rv); s > best {
				best = s
			}
		}
		pSum += best
	}
	res.Precision = pSum / float64(len(candVecs))
	var rSum float64
	for _, rv := range refVecs {
		best := 0.0
		for _, cv := range candVecs {
			if s := rv.Cosine(cv); s > best {
				best = s
			}
		}
		rSum += best
	}
	res.Recall = rSum / float64(len(refVecs))
	if res.Precision+res.Recall > 0 {
		res.F1 = 2 * res.Precision * res.Recall / (res.Precision + res.Recall)
	}
	return res
}

// anisotropyMix is the weight of the shared direction added to every
// token vector. Transformer embedding spaces are strongly anisotropic —
// all vectors cluster around a common direction, so even unrelated
// tokens have high cosine similarity. That anisotropy is what produces
// BERTScore's ceiling effect (the paper's observation (iii)), so the
// simulation reproduces it explicitly: with weight λ, two unrelated
// tokens score λ²/(1+λ²) ≈ 0.66 instead of ≈ 0.
const anisotropyMix = 1.4

// tokenVectors embeds each token with one neighbour of context on each
// side, giving the "contextual" flavor of transformer embeddings, and
// mixes in the shared anisotropy direction.
func (b *BERTScorer) tokenVectors(tokens []string) []embed.Vector {
	dim := b.emb.Dim()
	shared := make(embed.Vector, dim)
	base := float32(1 / math.Sqrt(float64(dim)))
	for i := range shared {
		shared[i] = base
	}
	out := make([]embed.Vector, len(tokens))
	for i, tok := range tokens {
		ctx := tok
		if i > 0 {
			ctx = tokens[i-1] + " " + ctx
		}
		if i+1 < len(tokens) {
			ctx = ctx + " " + tokens[i+1]
		}
		// The token itself dominates; context contributes; the shared
		// direction raises the floor.
		e := b.emb.Embed(tok + " " + ctx)
		v := make(embed.Vector, dim)
		for j := range v {
			v[j] = e[j] + anisotropyMix*shared[j]
		}
		out[i] = v
	}
	return out
}

// GEval is the LLM-as-a-judge metric: it prompts the judge model with
// question, reference and candidate, and returns the 0..1 judgment.
type GEval struct {
	model llm.Model
}

// NewGEval wraps a judge model.
func NewGEval(model llm.Model) *GEval { return &GEval{model: model} }

// Score judges the candidate answer.
func (g *GEval) Score(question, reference, candidate string) (float64, error) {
	resp, err := g.model.Complete(noCtx(), llm.Request{
		Task:      llm.TaskJudge,
		Question:  question,
		Reference: reference,
		Candidate: candidate,
	})
	if err != nil {
		return 0, err
	}
	return resp.Score, nil
}

func clamp01(f float64) float64 {
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}
