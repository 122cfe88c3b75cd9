// Command iypbuild generates the synthetic IYP dataset and, optionally,
// the CypherEval-style benchmark: it runs every crawler, verifies graph
// integrity, prints the dataset statistics, and writes snapshot files.
//
// Usage:
//
//	iypbuild -out iyp.iypc
//	iypbuild -ases 1000 -seed 7 -bench bench.json
package main

import (
	"flag"
	"fmt"
	"os"

	"chatiyp/internal/cyphereval"
	"chatiyp/internal/iyp"
	"chatiyp/internal/persist"
)

func main() {
	var (
		out      = flag.String("out", "", "write the mmap-able columnar graph snapshot to this path")
		dataDir  = flag.String("data-dir", "", "initialize a server data directory (columnar base + empty WAL) from the built graph")
		jsonlOut = flag.String("jsonl", "", "export the graph as JSON lines (IYP-dump-style) to this path")
		benchOut = flag.String("bench", "", "also generate the benchmark and write it to this JSON path")
		seed     = flag.Int64("seed", 42, "world generator seed")
		ases     = flag.Int("ases", 600, "number of autonomous systems")
		ixps     = flag.Int("ixps", 40, "number of IXPs")
		domains  = flag.Int("domains", 300, "number of ranked domains")
		prefixes = flag.Int("prefixes", 2400, "total prefix budget")
		entities = flag.Int("scale-entities", 0, "size the world for at least this many graph entities (overrides -ases/-ixps/-domains/-prefixes)")
		perTpl   = flag.Int("per-template", 10, "benchmark instances per template")
	)
	flag.Parse()

	var cfg iyp.Config
	if *entities > 0 {
		sc := iyp.ScaleForEntities(*entities)
		sc.Seed = *seed
		cfg = sc.Config()
		fmt.Printf("scaled world: %d ASes for >= %d entities\n", cfg.NumASes, *entities)
	} else {
		cfg = iyp.Config{
			Seed:          *seed,
			NumASes:       *ases,
			NumIXPs:       *ixps,
			NumFacilities: *ixps + 20,
			NumDomains:    *domains,
			PrefixBudget:  *prefixes,
		}
	}
	g, w, err := iyp.Build(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "iypbuild:", err)
		os.Exit(1)
	}
	fmt.Println(g.CollectStats().String())

	if *out != "" {
		if err := g.SaveFile(*out); err != nil {
			fmt.Fprintln(os.Stderr, "iypbuild: saving graph:", err)
			os.Exit(1)
		}
		fmt.Printf("graph snapshot written to %s\n", *out)
	}
	if *dataDir != "" {
		if err := persist.Init(*dataDir, g); err != nil {
			fmt.Fprintln(os.Stderr, "iypbuild: initializing data dir:", err)
			os.Exit(1)
		}
		fmt.Printf("data directory initialized at %s\n", *dataDir)
	}
	if *jsonlOut != "" {
		f, err := os.Create(*jsonlOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "iypbuild:", err)
			os.Exit(1)
		}
		if err := g.WriteJSONLines(f); err != nil {
			fmt.Fprintln(os.Stderr, "iypbuild: exporting JSON lines:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "iypbuild:", err)
			os.Exit(1)
		}
		fmt.Printf("JSON-lines export written to %s\n", *jsonlOut)
	}
	if *benchOut != "" {
		genCfg := cyphereval.DefaultGenConfig()
		genCfg.PerTemplate = *perTpl
		bench, err := cyphereval.Generate(g, w, genCfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "iypbuild: generating benchmark:", err)
			os.Exit(1)
		}
		if err := bench.SaveFile(*benchOut); err != nil {
			fmt.Fprintln(os.Stderr, "iypbuild: saving benchmark:", err)
			os.Exit(1)
		}
		fmt.Printf("benchmark with %d questions written to %s\n%s", len(bench.Questions), *benchOut, bench.Counts())
	}
}
