package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

const (
	// setupBoots is how many times the server is booted on the
	// untouched data dir; setup_s is the median and the last boot
	// serves the run.
	setupBoots = 3
	// harnessGCPercent is the harness's own GOGC during an end-to-end run.
	harnessGCPercent = 800
	// measuredTimeout keeps a run on a slow box inside the driver's
	// per-run limit: the list is fixed, so only the clock can stop it.
	measuredTimeout = 90 * time.Second
)

// bootForRun boots the server setupBoots times and keeps the last one.
// The earlier ones are killed, not stopped: a SIGTERM would checkpoint,
// and the boots are meant to see the same data dir.
func bootForRun(cfg *config, dataDir string) (srv *serverProc, boots []float64, err error) {
	for i := 1; ; i++ {
		srv, err = startServer(cfg.serverBin, dataDir, filepath.Join(cfg.tmp, fmt.Sprintf("server-boot%d.log", i)))
		if err != nil {
			return nil, nil, err
		}
		boots = append(boots, srv.bootTime.Seconds())
		if i == setupBoots {
			return srv, boots, nil
		}
		srv.kill()
	}
}

// runWarmup sends the warm-up ops and fails the run if one fails: a
// server that cannot serve its warm-up is not worth timing. It returns
// the latency of the first write, the one that pays for hydrating the
// mutable graph.
func runWarmup(c *loadClient, orc *oracle, warm []op) (firstWrite time.Duration, err error) {
	outs, _ := runClosedLoop(c, orc, warm, time.Now().Add(time.Minute))
	if len(outs) < len(warm) {
		return 0, fmt.Errorf("warm-up did not finish within a minute (%d of %d ops)", len(outs), len(warm))
	}
	for i, o := range outs {
		if o.failed {
			return 0, fmt.Errorf("warm-up op %d failed: %s", i, o.errText)
		}
		if warm[i].Class == classWrite && firstWrite == 0 {
			firstWrite = o.latency
		}
	}
	return firstWrite, nil
}

// loadSummary holds the client-side numbers of a measured phase, shared
// by the end-to-end and the traced run.
type loadSummary struct {
	attempted, failed, correct int
	sorted                     []float64 // latencies in ms, ascending
	byClass                    map[string][]float64
	firstFailure               string
}

func summarize(outs []outcome) *loadSummary {
	s := &loadSummary{attempted: len(outs), byClass: map[string][]float64{}}
	for _, o := range outs {
		ms := float64(o.latency.Nanoseconds()) / 1e6
		s.sorted = append(s.sorted, ms)
		s.byClass[o.class] = append(s.byClass[o.class], ms)
		switch {
		case o.failed:
			s.failed++
			if s.firstFailure == "" {
				s.firstFailure = o.errText
			}
		case o.correct:
			s.correct++
		}
	}
	sort.Float64s(s.sorted)
	return s
}

// reportClient records the speed a measured phase ran at: the four time
// metrics that were meant to be gated and proved too noisy on a shared
// 2-core box (see README.md), and the p99 that was never meant to be.
func (s *loadSummary) reportClient(rep *report, wall time.Duration, serverCPU float64) {
	n := float64(s.attempted)
	rep.layer("client.throughput_ops_s", n/wall.Seconds(), "ops/s")
	rep.layer("client.latency_p50_ms", percentile(s.sorted, 0.50), "ms")
	rep.layer("client.latency_p95_ms", percentile(s.sorted, 0.95), "ms")
	rep.layer("client.latency_p99_ms", percentile(s.sorted, 0.99), "ms")
	rep.layer("client.server_cpu_ms_per_op", serverCPU*1000/n, "ms")
}

// writeOpRecords writes one line per measured op — index, class, kind, when
// it was sent (from the first op on), latency, failed, correct — the raw
// output the summaries come from.
func writeOpRecords(path string, outs []outcome) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "op,class,kind,sent_us,latency_us,failed,correct")
	for i, o := range outs {
		fmt.Fprintf(w, "%d,%s,%s,%d,%d,%t,%t\n", i, o.class, o.kind, o.sent.Sub(outs[0].sent).Microseconds(), o.latency.Microseconds(), o.failed, o.correct)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// countNotes asks the server how many BenchNote nodes it holds.
func countNotes(c *loadClient) (int, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	resp, err := c.sdk.Query(ctx, countNotesQuery, nil)
	if err != nil {
		return 0, err
	}
	if len(resp.Rows) != 1 || len(resp.Rows[0]) != 1 {
		return 0, fmt.Errorf("unexpected shape of %q result", countNotesQuery)
	}
	n, ok := resp.Rows[0][0].(float64)
	if !ok {
		return 0, fmt.Errorf("unexpected type %T of %q result", resp.Rows[0][0], countNotesQuery)
	}
	return int(n), nil
}

// runEndToEnd is the untraced run: boot, warm up, measure the whole
// list from the closed-loop client, check, report.
func runEndToEnd(cfg *config, rep *report, ops *opList, orc *oracle, dataDir string) error {
	// The harness shares two cores with the server it measures, so its
	// own collector has to stay out of the way. Without the fixture graph
	// the live heap is a few tens of MB; at this setting a cycle comes
	// every few seconds and marks for milliseconds.
	orc.release()
	debug.SetGCPercent(harnessGCPercent)
	runtime.GC()

	srv, boots, err := bootForRun(cfg, dataDir)
	if err != nil {
		return err
	}
	c, err := newLoadClient(srv.base)
	if err != nil {
		return err
	}
	firstWrite, err := runWarmup(c, orc, ops.Warmup)
	if err != nil {
		return err
	}
	calibBefore := calibrate()
	before, err := srv.scrape()
	if err != nil {
		return err
	}
	bytesBefore := c.bytes.Load()
	cpuBefore, err := srv.cpuSeconds()
	if err != nil {
		return err
	}
	outs, wall := runClosedLoop(c, orc, ops.Measured, time.Now().Add(measuredTimeout))
	cpuAfter, err := srv.cpuSeconds()
	if err != nil {
		return err
	}
	respBytes := c.bytes.Load() - bytesBefore
	// Read before SIGTERM: the shutdown checkpoint must not count.
	rss, err := srv.peakRSSMB()
	if err != nil {
		return err
	}
	after, err := srv.scrape()
	if err != nil {
		return err
	}
	calibAfter := calibrate()
	if len(outs) == 0 {
		return fmt.Errorf("no operation completed")
	}

	s := summarize(outs)
	if err := writeOpRecords(filepath.Join(cfg.outDir, "ops-"+cfg.workload+".csv"), outs); err != nil {
		return err
	}
	rep.Attempted, rep.Failed = s.attempted, s.failed
	if s.failed > 0 {
		rep.problem("%d of %d operations failed; first: %s", s.failed, s.attempted, s.firstFailure)
	}
	if len(outs) < len(ops.Measured) {
		rep.problem("measured phase hit its deadline after %d of %d operations", len(outs), len(ops.Measured))
	}
	rejected := after.Counters["server.rejected"] - before.Counters["server.rejected"]
	if rejected != 0 {
		rep.problem("server rejected %d requests", rejected)
	}
	correct := s.correct
	if !ops.Measured[0].Ask && s.correct != s.attempted {
		rep.problem("%d of %d responses differ from the in-process oracle", s.attempted-s.correct, s.attempted)
	}
	if want := ops.creates(); want > 0 {
		durable, err := checkDurability(cfg, rep, srv, c, dataDir, want)
		if err != nil {
			return err
		}
		if !durable {
			correct = 0 // a lost write must push correct_ratio under its bound
		}
	} else if _, err := srv.stop(); err != nil {
		return err
	}

	n := float64(s.attempted)
	rep.gate("setup_s", median(boots), "s")
	rep.gate("server_peak_rss_mb", rss, "MB")
	rep.gate("correct_ratio", float64(correct)/n, "ratio")
	rep.info("fail_ratio", float64(s.failed)/n, "ratio")
	s.reportClient(rep, wall, cpuAfter-cpuBefore)

	for i, b := range boots {
		rep.info(fmt.Sprintf("setup.boot%d_s", i+1), b, "s")
	}
	rep.layer("host.calib_ms", float64(calibBefore.Nanoseconds())/1e6, "ms")
	rep.layer("host.calib_drift", float64(calibAfter)/float64(calibBefore), "ratio")
	rep.info("client.ops", n, "count")
	rep.info("client.measured_s", wall.Seconds(), "s")
	rep.info("client.resp_bytes_per_op", float64(respBytes)/n, "B")
	for class, lat := range s.byClass {
		sort.Float64s(lat)
		rep.info("client."+class+".ops", float64(len(lat)), "count")
		rep.info("client."+class+".p50_ms", percentile(lat, 0.50), "ms")
		rep.info("client."+class+".p95_ms", percentile(lat, 0.95), "ms")
	}
	rep.layer("graph.first_write_ms", float64(firstWrite.Nanoseconds())/1e6, "ms")
	rep.layer("server.rejected", float64(rejected), "count")
	return nil
}

// checkDurability verifies that the server holds exactly the
// acknowledged creates (none, for a workload without writes), and still
// does after SIGTERM — which checkpoints — and a reboot. It reports
// whether both counts matched, and records what the stop and the boot
// after it took.
func checkDurability(cfg *config, rep *report, srv *serverProc, c *loadClient, dataDir string, want int) (bool, error) {
	before, err := countNotes(c)
	if err != nil {
		return false, fmt.Errorf("counting notes: %w", err)
	}
	if before != want {
		rep.problem("server holds %d BenchNote nodes, %d creates were acknowledged", before, want)
	}
	stopTook, err := srv.stop()
	if err != nil {
		return false, err
	}
	again, err := startServer(cfg.serverBin, dataDir, filepath.Join(cfg.tmp, "server-reboot.log"))
	if err != nil {
		return false, fmt.Errorf("reboot for the durability check: %w", err)
	}
	rep.layer("persist.shutdown_checkpoint_s", stopTook.Seconds(), "s")
	rep.layer("persist.reopen_s", again.bootTime.Seconds(), "s")
	c2, err := newLoadClient(again.base)
	if err != nil {
		return false, err
	}
	after, err := countNotes(c2)
	if err != nil {
		return false, fmt.Errorf("counting notes after the reboot: %w", err)
	}
	if after != want {
		rep.problem("after a restart the server holds %d BenchNote nodes, %d creates were acknowledged", after, want)
	}
	_, err = again.stop()
	return before == want && after == want, err
}
