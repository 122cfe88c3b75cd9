package main

import (
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"sort"

	"chatiyp/internal/api"
)

// Workload names. Later issues cite them; do not rename.
const (
	wlAskCold    = "ask_cold"
	wlAskWarm    = "ask_warm"
	wlCypherRead = "cypher_read"
	wlCypherRW   = "cypher_rw"
)

var workloadNames = []string{wlAskCold, wlAskWarm, wlCypherRead, wlCypherRW}

// runSeconds is the run length BENCHMARK.json states. The lists below
// are sized so that the measured phase lasts about that long on the
// commit that introduced the benchmark, on the 2-core box it was
// calibrated on. The work — not the duration — is what stays fixed
// when the code changes.
const runSeconds = 15

// measuredOps is the length of each workload's measured list: whole
// blocks of ten, which keeps the 1-in-10 shares exact.
var measuredOps = map[string]int{
	wlAskCold:    3000,
	wlAskWarm:    46000,
	wlCypherRead: 4680,
	wlCypherRW:   2820,
}

// Op classes, recorded per operation in the raw output.
const (
	classMiss  = "miss"
	classHit   = "hit"
	classLight = "light"
	classHeavy = "heavy"
	classWrite = "write"
)

const (
	warmupOps      = 200
	hotQuestions   = 256
	zipfExponent   = 1.1
	hotShuffleSeed = 42
)

const (
	createNoteQuery = "MATCH (a:AS {asn:$x}) CREATE (n:BenchNote {id:$i, text:$t})-[:NOTED]->(a)"
	setNoteQuery    = "MATCH (n:BenchNote {id:$i}) SET n.text = $t"
	countNotesQuery = "MATCH (n:BenchNote) RETURN count(n)"
)

var (
	createNoteStats = api.WriteStats{NodesCreated: 1, RelationshipsCreated: 1, PropertiesSet: 2, LabelsAdded: 1}
	setNoteStats    = api.WriteStats{PropertiesSet: 1}
)

// op is one request the harness sends. It is plain data so that a list
// of ops serialises to the same bytes for the same seed.
type op struct {
	// Ask is true for POST /v1/ask, false for POST /v1/cypher.
	Ask bool `json:"ask,omitempty"`
	// Class is the planned class; for asks the observed class
	// (cache_hit) is what the raw output records.
	Class string `json:"class"`
	// Kind names what the op is an instance of, for the raw output: the
	// question template, the analytic scan, or the write.
	Kind string `json:"kind"`
	// Text is the question or the Cypher query.
	Text   string         `json:"text"`
	Params map[string]any `json:"params,omitempty"`
	// Gold is the gold Cypher of an ask.
	Gold string `json:"gold,omitempty"`
	// Stats is what a write must report.
	Stats *api.WriteStats `json:"stats,omitempty"`
}

// opList is one workload's warm-up and measured operations.
type opList struct {
	Warmup   []op `json:"warmup"`
	Measured []op `json:"measured"`
}

// creates counts the CREATE ops in both lists together: the number of
// BenchNote nodes the server must hold (and still hold after a
// restart) once every one was acknowledged.
func (l *opList) creates() int {
	n := 0
	for _, ops := range [][]op{l.Warmup, l.Measured} {
		for _, p := range ops {
			if p.Text == createNoteQuery {
				n++
			}
		}
	}
	return n
}

// buildOps makes the warm-up and measured lists of one workload. The
// same (workload, fixture, seed, n) always gives the same lists.
func buildOps(workload string, fx *fixture, seed int64, n int) (*opList, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload %s: no operations to run", workload)
	}
	rng := rand.New(rand.NewSource(seed))
	switch workload {
	case wlAskCold:
		return askColdOps(fx, rng, n), nil
	case wlAskWarm:
		return askWarmOps(fx, rng, n)
	case wlCypherRead:
		return cypherOps(fx, rng, n, false), nil
	case wlCypherRW:
		return cypherOps(fx, rng, n, true), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
}

// roundRobin lists question indexes template by template — the first
// of every template, then the second of every template, … — skipping
// the last reserve[t] questions of template t. Every prefix of the
// result holds the templates in the same proportion.
func roundRobin(fx *fixture, reserve []int) []int {
	var out []int
	for i := 0; ; i++ {
		took := false
		for t, group := range fx.byTemplate {
			keep := len(group)
			if reserve != nil {
				keep -= reserve[t]
			}
			if i < keep {
				out = append(out, group[i])
				took = true
			}
		}
		if !took {
			return out
		}
	}
}

func (fx *fixture) askOp(qi int, class string) op {
	q := fx.questions[qi]
	return op{Ask: true, Class: class, Kind: q.Template, Text: q.Text, Gold: q.GoldCypher}
}

// askColdOps: the first n distinct questions in round-robin template
// order, each asked exactly once, shuffled by the seed. The set is the
// same for every seed — only the order differs — so correct_ratio and
// the mix of cheap and expensive questions do not move with the seed.
// The warm-up asks questions taken from the tail of each template,
// which the measured list never reaches.
func askColdOps(fx *fixture, rng *rand.Rand, n int) *opList {
	reserve := make([]int, len(fx.byTemplate))
	var warm []int
	for i := 0; len(warm) < warmupOps; i++ {
		took := false
		for t, group := range fx.byTemplate {
			if len(warm) < warmupOps && i < len(group)/2 {
				warm = append(warm, group[len(group)-1-i])
				reserve[t]++
				took = true
			}
		}
		if !took {
			break
		}
	}
	pool := roundRobin(fx, reserve)
	// A question can be cold only once: the list ends where the
	// distinct questions do.
	n = min(n, len(pool))
	l := &opList{}
	for _, qi := range warm {
		l.Warmup = append(l.Warmup, fx.askOp(qi, classMiss))
	}
	for _, qi := range pool[:n] {
		l.Measured = append(l.Measured, fx.askOp(qi, classMiss))
	}
	shuffleOps(rng, l.Measured)
	return l
}

// zipfCounts splits n draws over k ranks in proportion to rank^-s,
// exactly: the counts are the same for every seed.
func zipfCounts(n, k int, s float64) []int {
	w := make([]float64, k)
	total := 0.0
	for i := range w {
		w[i] = math.Pow(float64(i+1), -s)
		total += w[i]
	}
	counts := make([]int, k)
	type rem struct {
		rank int
		frac float64
	}
	rems := make([]rem, k)
	given := 0
	for i := range w {
		exact := float64(n) * w[i] / total
		counts[i] = int(exact)
		given += counts[i]
		rems[i] = rem{i, exact - float64(counts[i])}
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].frac > rems[b].frac })
	for i := 0; given < n; i++ {
		counts[rems[i%k].rank]++
		given++
	}
	return counts
}

var (
	stringLiteral = regexp.MustCompile(`'[^']*'`)
	relType       = regexp.MustCompile(`\[\w*:(\w+)`)
	dottedProp    = regexp.MustCompile(`\w\.([A-Za-z_]\w*)`)
)

// translatesStably reports whether the simulated model translates a
// question with this gold query the same way every time. When the model
// decides to get a translation wrong, it swaps the first relationship
// type (or property) of its confusion table found in the query — and
// finds it by ranging over a Go map. A query with two candidates comes
// out differently from one server process to the next, and one variant
// can happen to return the gold rows. With Zipf weights one such
// question among the hot ones moves correct_ratio by 3%.
func translatesStably(gold string) bool {
	q := stringLiteral.ReplaceAllString(gold, "''")
	distinct := func(re *regexp.Regexp) int {
		seen := map[string]bool{}
		for _, m := range re.FindAllStringSubmatch(q, -1) {
			seen[m[1]] = true
		}
		return len(seen)
	}
	return distinct(relType) <= 1 && distinct(dottedProp) <= 1
}

// askWarmOps: 256 hot questions, ranked by a fixed shuffle, asked with
// exact Zipf(1.1) frequencies in a seeded order. The warm-up asks each
// hot question once (filling the semantic cache) and then 200 more, so
// every measured op is a cache hit. Only questions the model translates
// the same way every time are hot, so that correct_ratio repeats.
func askWarmOps(fx *fixture, rng *rand.Rand, n int) (*opList, error) {
	var pool []int
	for _, qi := range roundRobin(fx, nil) {
		if translatesStably(fx.questions[qi].GoldCypher) {
			pool = append(pool, qi)
		}
	}
	if len(pool) < hotQuestions {
		return nil, fmt.Errorf("ask_warm: only %d questions, need %d hot ones", len(pool), hotQuestions)
	}
	hot := append([]int(nil), pool[:hotQuestions]...)
	rand.New(rand.NewSource(hotShuffleSeed)).Shuffle(len(hot), func(i, j int) { hot[i], hot[j] = hot[j], hot[i] })
	l := &opList{}
	for _, qi := range hot {
		l.Warmup = append(l.Warmup, fx.askOp(qi, classMiss))
	}
	for rank, c := range zipfCounts(n, hotQuestions, zipfExponent) {
		for ; c > 0; c-- {
			l.Measured = append(l.Measured, fx.askOp(hot[rank], classHit))
		}
	}
	shuffleOps(rng, l.Measured)
	for i := 0; i < warmupOps; i++ {
		l.Warmup = append(l.Warmup, l.Measured[rng.Intn(len(l.Measured))])
	}
	return l, nil
}

// cypherOps lays out the /v1/cypher schedule. In every block of ten
// the last op is a heavy analytic scan and the rest are light gold
// queries, the same number from every template with the instance drawn
// by the seed; with writes, the ninth op of every block is a write
// instead. The write sits right before the scan, so the snapshot
// publish it causes is paid by the scan: the median latency stays in
// the light mode, and the 95th percentile is the scans with the
// publishes. The warm-up follows the same schedule.
func cypherOps(fx *fixture, rng *rand.Rand, n int, writes bool) *opList {
	b := &cypherBuilder{fx: fx, rng: rng, writes: writes, heavyAt: rng.Intn(len(analyticQueries))}
	l := &opList{}
	l.Warmup = b.schedule(warmupOps)
	l.Measured = b.schedule(n)
	return l
}

type cypherBuilder struct {
	fx      *fixture
	rng     *rand.Rand
	writes  bool
	heavyAt int
	tplAt   int
	writeAt int
	// notes holds the ids of the notes created so far, in list order.
	notes []int64
}

func (b *cypherBuilder) schedule(n int) []op {
	ops := make([]op, n)
	for i := range ops {
		switch {
		case i%10 == 9:
			k := b.heavyAt % len(analyticQueries)
			ops[i] = op{Class: classHeavy, Kind: fmt.Sprintf("scan%d", k+1), Text: analyticQueries[k]}
			b.heavyAt++
		case b.writes && i%10 == 8:
			ops[i] = b.write()
		default:
			group := b.fx.byTemplate[b.tplAt%len(b.fx.byTemplate)]
			b.tplAt++
			q := b.fx.questions[group[b.rng.Intn(len(group))]]
			ops[i] = op{Class: classLight, Kind: q.Template, Text: q.GoldCypher}
		}
	}
	return ops
}

// write makes the next write: two CREATEs, then a SET on one of the
// notes created so far.
func (b *cypherBuilder) write() op {
	b.writeAt++
	if b.writeAt%3 == 0 {
		id := b.notes[b.rng.Intn(len(b.notes))]
		stats := setNoteStats
		return op{Class: classWrite, Kind: "set", Text: setNoteQuery, Stats: &stats,
			Params: map[string]any{"i": id, "t": fmt.Sprintf("edited by write %d", b.writeAt)}}
	}
	id := int64(len(b.notes) + 1)
	b.notes = append(b.notes, id)
	stats := createNoteStats
	return op{Class: classWrite, Kind: "create", Text: createNoteQuery, Stats: &stats,
		Params: map[string]any{
			"x": b.fx.asns[b.rng.Intn(len(b.fx.asns))],
			"i": id,
			"t": fmt.Sprintf("note %d", id),
		}}
}

func shuffleOps(rng *rand.Rand, ops []op) {
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
}
