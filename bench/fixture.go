package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"chatiyp/internal/cyphereval"
	"chatiyp/internal/graph"
	"chatiyp/internal/iyp"
)

// The fixture is the same for every workload and every seed: the seed
// only drives the operation lists. World seed 42 at 300k entities is
// ≈10k ASes / ≈88k nodes / ≈259k relationships.
const (
	fixtureEntities  = 300_000
	fixtureWorldSeed = 42
)

// fixturePerTemplate is how many questions per template the fixture
// generates: ≈5.3k distinct ones from 36 templates, enough for
// ask_cold's list and its warm-up. Generating validates every gold
// query by executing it, so it is not free.
const fixturePerTemplate = 150

// analyticQueries are the heavy mode of the cypher workloads: label
// scans and aggregations that touch every AS or Prefix (10–80 ms each
// on the 300k world). Every one carries a total ORDER BY or returns a
// single row, so its result is comparable row by row.
var analyticQueries = []string{
	"MATCH (a:AS)-[:COUNTRY]->(c:Country) RETURN c.country_code AS cc, count(a) AS n ORDER BY n DESC, cc",
	"MATCH (a:AS)-[:MANAGED_BY]->(o:Organization) RETURN o.name AS org, count(a) AS n ORDER BY n DESC, org LIMIT 20",
	"MATCH (p:Prefix) WHERE p.af = 6 RETURN count(p) AS n",
	"MATCH (a:AS)-[:ORIGINATE]->(p:Prefix) RETURN a.asn AS asn, count(p) AS n ORDER BY n DESC, asn LIMIT 10",
	"MATCH (a:AS)-[d:DEPENDS_ON]->(b:AS) WHERE d.hegemony > 0.5 RETURN count(d) AS n",
	"MATCH (a:AS) RETURN a.asn AS asn ORDER BY asn DESC LIMIT 100",
}

// fixture is the harness's own copy of the world: the graph the oracle
// executes on, the generated questions with their gold Cypher, and the
// ASNs writes attach notes to.
type fixture struct {
	graph     *graph.Graph
	questions []cyphereval.Question
	asns      []int64
	// byTemplate groups question indexes by template, templates in
	// generation order.
	byTemplate [][]int
	buildTime  time.Duration
}

// buildFixture generates the world and the question set. cfg and
// perTemplate are parameters so the tests can run on iyp.SmallConfig().
func buildFixture(cfg iyp.Config, perTemplate int) (*fixture, error) {
	start := time.Now()
	g, w, err := iyp.Build(cfg)
	if err != nil {
		return nil, fmt.Errorf("building world: %w", err)
	}
	gen := cyphereval.DefaultGenConfig()
	gen.PerTemplate = perTemplate
	b, err := cyphereval.Generate(g, w, gen)
	if err != nil {
		return nil, fmt.Errorf("generating questions: %w", err)
	}
	fx := &fixture{graph: g, questions: b.Questions}
	for _, a := range w.ASes {
		fx.asns = append(fx.asns, a.ASN)
	}
	at := map[string]int{}
	for i, q := range b.Questions {
		t, ok := at[q.Template]
		if !ok {
			t = len(fx.byTemplate)
			at[q.Template] = t
			fx.byTemplate = append(fx.byTemplate, nil)
		}
		fx.byTemplate[t] = append(fx.byTemplate[t], i)
	}
	fx.buildTime = time.Since(start)
	return fx, nil
}

func fullFixtureConfig() iyp.Config {
	sc := iyp.ScaleForEntities(fixtureEntities)
	sc.Seed = fixtureWorldSeed
	return sc.Config()
}

// copyDataDir clones a data directory, so a second server (or the
// in-process replay of -trace) starts from the untouched snapshot.
func copyDataDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
