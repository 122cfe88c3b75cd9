// Command chatiyp-server runs the ChatIYP web application: the
// versioned /v1/ API (ask, batch ask, Cypher over JSON / paginated
// JSON / streaming NDJSON, explain, schema, stats, metrics — see
// docs/API.md) and the embedded single-page UI, mirroring the paper's
// public deployment.
//
// Usage:
//
//	chatiyp-server -addr :8080
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"chatiyp"
	"chatiyp/internal/core"
	"chatiyp/internal/graph"
	"chatiyp/internal/iyp"
	"chatiyp/internal/persist"
	"chatiyp/internal/server"
)

func main() {
	var (
		addr          = flag.String("addr", ":8080", "listen address")
		small         = flag.Bool("small", false, "use the small dataset (fast startup)")
		perfect       = flag.Bool("perfect", false, "disable the simulated model's translation noise")
		graphIn       = flag.String("graph", "", "load the knowledge graph from a snapshot")
		maxConcurrent = flag.Int("max-concurrent", 0, "max concurrently executing ask/cypher requests (0 = 2x GOMAXPROCS)")
		maxQueue      = flag.Int("max-queue", 0, "max requests waiting for a slot before 429 (0 = 4x max-concurrent, negative disables queueing)")
		askTimeout    = flag.Duration("ask-timeout", 0, "per-question deadline, aborts execution (0 = 15s default)")
		cypherTimeout = flag.Duration("cypher-timeout", 0, "per-query deadline on /v1/cypher (0 = 10s default)")
		drainTimeout  = flag.Duration("drain-timeout", 0, "graceful-shutdown budget for in-flight requests (0 = 5s default)")
		maxPar        = flag.Int("max-parallelism", 0, "max morsel workers per query (0 = GOMAXPROCS, 1 = serial execution)")
		annRetr       = flag.Bool("ann-retrieval", false, "serve vector retrieval from the approximate HNSW index instead of the exact scan")
		semThr        = flag.Float64("semcache-threshold", 0, "enable the semantic answer cache at this similarity threshold, e.g. 0.97 (0 = disabled)")
		semSize       = flag.Int("semcache-size", 0, "semantic cache LRU capacity (0 = default)")
		dataDir       = flag.String("data-dir", "", "durable data directory (mmap columnar base snapshot + write-ahead log); created and seeded on first start")
		fsyncMode     = flag.String("fsync", "interval", "WAL fsync policy: always, interval, or never")
		fsyncEvery    = flag.Duration("fsync-interval", 100*time.Millisecond, "fsync timer period for -fsync=interval")
		ckptBytes     = flag.Int64("checkpoint-bytes", 64<<20, "auto-checkpoint once the WAL exceeds this size (0 disables)")
		llmRetries    = flag.Int("llm-retries", 0, "retries per failed model call, jittered backoff (0 = 2 default, negative disables)")
		llmBrkCool    = flag.Duration("llm-breaker-cooldown", 0, "open-breaker cooldown before half-open probing (0 = 5s default)")
		noResilience  = flag.Bool("no-llm-resilience", false, "disable the LLM resilience layer (no retries, breakers, or degraded answers)")
		llmFaults     = flag.String("llm-faults", "", `inject deterministic model faults for chaos testing, e.g. "down" or "all=error:0.3"`)
	)
	flag.Parse()
	logger := log.New(os.Stderr, "chatiyp-server ", log.LstdFlags)

	opts := chatiyp.Options{Perfect: *perfect, ANNRetrieval: *annRetr, LLMFaults: *llmFaults}
	if *small {
		opts.Dataset = iyp.SmallConfig()
	}
	var (
		sys   *chatiyp.System
		store *persist.Store
		err   error
	)
	if *dataDir != "" {
		policy, perr := persist.ParseFsyncPolicy(*fsyncMode)
		if perr != nil {
			logger.Fatal(perr)
		}
		store, err = openOrInitStore(logger, *dataDir, *graphIn, opts, persist.Options{
			Fsync:           policy,
			FsyncInterval:   *fsyncEvery,
			CheckpointBytes: *ckptBytes,
			VerifyChecksums: true,
		})
		if err == nil {
			sys, err = chatiyp.FromGraph(store.Graph(), nil, opts)
		}
	} else if *graphIn != "" {
		var g *chatiyp.Graph
		g, err = chatiyp.LoadGraph(*graphIn)
		if err == nil {
			sys, err = chatiyp.FromGraph(g, nil, opts)
		}
	} else {
		sys, err = chatiyp.New(opts)
	}
	if err != nil {
		logger.Fatal(err)
	}
	logger.Printf("IYP graph ready: %d nodes, %d relationships", sys.Graph().NodeCount(), sys.Graph().RelationshipCount())

	var pipe *core.Pipeline = sys.Pipeline()
	srv, err := server.New(server.Config{
		Pipeline:           pipe,
		Logger:             logger,
		MaxConcurrent:      *maxConcurrent,
		MaxQueue:           *maxQueue,
		AskTimeout:         *askTimeout,
		CypherTimeout:      *cypherTimeout,
		DrainTimeout:       *drainTimeout,
		MaxParallelism:     *maxPar,
		SemCacheThreshold:  *semThr,
		SemCacheSize:       *semSize,
		LLMRetries:         *llmRetries,
		LLMBreakerCooldown: *llmBrkCool,
		DisableResilience:  *noResilience,
	})
	if err != nil {
		logger.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	logger.Printf("listening on %s", *addr)
	serveErr := srv.ListenAndServe(ctx, *addr)
	if store != nil {
		// The listener has drained: absorb the WAL into a fresh base so
		// the next start replays nothing, then flush and detach.
		if err := store.Checkpoint(); err != nil {
			logger.Printf("shutdown checkpoint: %v", err)
		}
		if err := store.Close(); err != nil {
			logger.Printf("closing store: %v", err)
		}
	}
	if serveErr != nil {
		fmt.Fprintln(os.Stderr, serveErr)
		os.Exit(1)
	}
}

// openOrInitStore opens the durable store at dir, seeding it first if
// it does not exist yet: from the -graph snapshot when given, otherwise
// by generating the configured dataset.
func openOrInitStore(logger *log.Logger, dir, graphIn string, opts chatiyp.Options, popts persist.Options) (*persist.Store, error) {
	if _, err := os.Stat(persist.BasePath(dir)); errors.Is(err, os.ErrNotExist) {
		var g *graph.Graph
		if graphIn != "" {
			g, err = chatiyp.LoadGraph(graphIn)
		} else {
			cfg := opts.Dataset
			if cfg.NumASes == 0 {
				cfg = iyp.DefaultConfig()
			}
			g, _, err = iyp.Build(cfg)
		}
		if err != nil {
			return nil, err
		}
		if err := persist.Init(dir, g); err != nil {
			return nil, err
		}
		logger.Printf("seeded data directory %s", dir)
	} else if err != nil {
		return nil, err
	}
	s, err := persist.Open(dir, popts)
	if err != nil {
		return nil, err
	}
	if n := s.ReplayCount(); n > 0 {
		logger.Printf("replayed %d WAL records", n)
	}
	return s, nil
}
