// Command bench is ChatIYP's end-to-end benchmark: it builds a seeded
// 300k-entity world, boots the real chatiyp-server on it, drives one of
// four fixed operation lists through the client SDK in a closed loop,
// checks every response against an in-process oracle, and prints every metric by name with its unit. With -trace 1
// it instead replays a prefix of the list, over HTTP and in-process,
// and times the calls into each layer. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"

	"chatiyp/internal/persist"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one run found. Gated holds the metrics BENCHMARK.json
// names for this mode (end-to-end without -trace, per-layer with it);
// Info holds everything else worth printing.
type report struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Gated     map[string]metric `json:"metrics"`
	Info      map[string]metric `json:"info"`
	// Problems lists every reason Correct is false.
	Problems []string `json:"problems,omitempty"`
}

func newReport(cfg *config) *report {
	return &report{
		Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace,
		Correct: true, Gated: map[string]metric{}, Info: map[string]metric{},
	}
}

func (r *report) gate(name string, v float64, unit string) { r.Gated[name] = metric{v, unit} }
func (r *report) info(name string, v float64, unit string) { r.Info[name] = metric{v, unit} }

// layer records a per-layer metric that both kinds of run measure: the
// traced run reports it in its result, the end-to-end run only prints
// it.
func (r *report) layer(name string, v float64, unit string) {
	if r.Trace {
		r.gate(name, v, unit)
	} else {
		r.info(name, v, unit)
	}
}

// problem records a failed check; the run ends with a non-zero exit.
func (r *report) problem(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// print writes every metric by name with its unit, then — as the last
// line of standard output — the result object the benchmark driver
// reads.
func (r *report) print() error {
	for _, set := range []map[string]metric{r.Info, r.Gated} {
		names := make([]string, 0, len(set))
		for n := range set {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("%-36s %16.6f %s\n", n, set[n].Value, set[n].Unit)
		}
		fmt.Println()
	}
	for _, p := range r.Problems {
		fmt.Println("PROBLEM:", p)
	}
	last, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Gated})
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	return nil
}

// record appends the report as one line to path, the input format of
// -compare.
func (r *report) record(path string) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type config struct {
	workload  string
	seed      int64
	trace     bool
	serverBin string
	outDir    string
	tmpRoot   string
	recordTo  string
	// tmp is this run's scratch directory under tmpRoot.
	tmp string
}

func main() {
	var (
		cfg     config
		seconds int
		trace   int
		compare bool
		spec    string
	)
	flag.StringVar(&cfg.workload, "workload", "", "one of ask_cold, ask_warm, cypher_read, cypher_rw")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the operation list (the world and the questions are fixed)")
	flag.IntVar(&seconds, "seconds", runSeconds, "the run length BENCHMARK.json states; the operation lists are fixed, so no other value is accepted")
	flag.IntVar(&trace, "trace", 0, "1 replays a prefix of the list with per-layer spans instead of measuring end to end")
	flag.StringVar(&cfg.serverBin, "server", "", "path of the chatiyp-server binary to boot")
	flag.StringVar(&cfg.outDir, "out", filepath.Join("bench", "out"), "directory for span files, per-op records and server logs of failed runs")
	flag.StringVar(&cfg.tmpRoot, "tmp", filepath.Join(".bench_build", "tmp"), "directory for data dirs; each run removes what it made")
	flag.StringVar(&cfg.recordTo, "record", "", "append this run's report as one JSON line to this file (input of -compare)")
	flag.BoolVar(&compare, "compare", false, "compare two -record files: bench -compare old.ndjson new.ndjson")
	flag.StringVar(&spec, "spec", "BENCHMARK.json", "the benchmark definition -compare takes its bounds from")
	flag.Parse()

	if compare {
		os.Exit(compareMain(spec, flag.Args()))
	}
	cfg.trace = trace != 0
	if seconds != runSeconds {
		fmt.Fprintf(os.Stderr, "bench: -seconds must be %d: the operation lists are fixed\n", runSeconds)
		os.Exit(2)
	}
	if err := cfg.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if err := runMain(&cfg); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func (cfg *config) validate() error {
	if _, ok := measuredOps[cfg.workload]; !ok {
		return fmt.Errorf("-workload must be one of %v", workloadNames)
	}
	if cfg.serverBin == "" {
		return errors.New("-server is required (bench/run.sh builds the binary and passes it)")
	}
	if _, err := os.Stat(cfg.serverBin); err != nil {
		return fmt.Errorf("-server: %w", err)
	}
	return nil
}

// runMain runs one workload. It returns nil only when no operation
// failed and every oracle check ran and passed.
func runMain(cfg *config) error {
	for _, dir := range []string{cfg.outDir, cfg.tmpRoot} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	tmp, err := os.MkdirTemp(cfg.tmpRoot, "run-")
	if err != nil {
		return err
	}
	cfg.tmp = tmp
	cleanup := func() {
		killAllServers()
		os.RemoveAll(tmp)
	}
	defer cleanup()
	// A signal must not leave a server or a data dir behind.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		cleanup()
		os.Exit(130)
	}()

	rep, err := run(cfg)
	if err != nil || !rep.Correct {
		keepServerLogs(cfg)
	}
	if err != nil {
		return err
	}
	if err := rep.print(); err != nil {
		return err
	}
	if cfg.recordTo != "" {
		if err := rep.record(cfg.recordTo); err != nil {
			return err
		}
	}
	if !rep.Correct {
		return errors.New("the run failed its checks; see the PROBLEM lines")
	}
	return nil
}

// keepServerLogs moves the server logs of a failed run out of the
// scratch directory before it is removed.
func keepServerLogs(cfg *config) {
	logs, _ := filepath.Glob(filepath.Join(cfg.tmp, "server-*.log"))
	for _, l := range logs {
		dst := filepath.Join(cfg.outDir, fmt.Sprintf("%s-%s", cfg.workload, filepath.Base(l)))
		if err := os.Rename(l, dst); err == nil {
			fmt.Fprintln(os.Stderr, "bench: server log kept at", dst)
		}
	}
}

// run builds the fixture and the op lists, then hands over to the
// end-to-end or the traced run.
func run(cfg *config) (*report, error) {
	rep := newReport(cfg)
	rep.layer("host.nproc", float64(runtime.NumCPU()), "count")
	rep.layer("host.gomaxprocs", float64(runtime.GOMAXPROCS(0)), "count")

	fx, err := buildFixture(fullFixtureConfig(), fixturePerTemplate)
	if err != nil {
		return nil, err
	}
	rep.info("fixture.build_s", fx.buildTime.Seconds(), "s")
	dataDir := filepath.Join(cfg.tmp, "data")
	if err := persist.Init(dataDir, fx.graph); err != nil {
		return nil, fmt.Errorf("seeding data dir: %w", err)
	}
	ops, err := buildOps(cfg.workload, fx, cfg.seed, measuredOps[cfg.workload])
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		// The traced run replays a prefix of the very list the
		// end-to-end run measures.
		ops.Measured = ops.Measured[:min(len(ops.Measured), traceOps)]
	}
	orc := newOracle(fx.graph)
	if err := errors.Join(orc.prepare(ops.Warmup), orc.prepare(ops.Measured)); err != nil {
		return nil, err
	}
	if cfg.trace {
		return rep, runTraced(cfg, rep, fx, ops, orc, dataDir)
	}
	return rep, runEndToEnd(cfg, rep, ops, orc, dataDir)
}
