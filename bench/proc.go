package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"chatiyp/client"
	"chatiyp/internal/persist"
)

// One server configuration serves all four workloads, so a gain on one
// that costs another shows: the semantic cache on at 0.97, the WAL
// flushed on a 100 ms timer and checkpointed at 64 MiB (the server's
// defaults when the benchmark was written, passed explicitly), everything
// else — exact vector scan, resilience on — at its default. These
// constants are the one definition of it: the child gets them as flags
// (serverFlags), the in-process mirror of the traced run as values
// (storeOptions, inproc.assemble).
const (
	semCacheThreshold = 0.97
	fsyncPolicy       = "interval"
	fsyncInterval     = 100 * time.Millisecond
	checkpointBytes   = 64 << 20
)

func serverFlags() []string {
	return []string{
		"-semcache-threshold", strconv.FormatFloat(semCacheThreshold, 'g', -1, 64),
		"-fsync", fsyncPolicy,
		"-fsync-interval", fsyncInterval.String(),
		"-checkpoint-bytes", strconv.Itoa(checkpointBytes),
	}
}

// storeOptions are the options the server opens its data dir with at
// serverFlags; it always verifies checksums.
func storeOptions() (persist.Options, error) {
	policy, err := persist.ParseFsyncPolicy(fsyncPolicy)
	return persist.Options{
		Fsync:           policy,
		FsyncInterval:   fsyncInterval,
		CheckpointBytes: checkpointBytes,
		VerifyChecksums: true,
	}, err
}

const (
	readyTimeout = 60 * time.Second
	readyPoll    = 2 * time.Millisecond
	stopTimeout  = 30 * time.Second
)

// serverProc is one running chatiyp-server child.
type serverProc struct {
	cmd     *exec.Cmd
	base    string
	logPath string
	exited  chan struct{} // closed once Wait has returned
	// bootTime is exec → first 200 from /v1/health/ready.
	bootTime time.Duration
}

// live tracks every child still running, so that any exit path — a
// normal return, a fatal error, a signal — can kill them.
var live struct {
	mu    sync.Mutex
	procs map[*serverProc]struct{}
}

func killAllServers() {
	live.mu.Lock()
	procs := make([]*serverProc, 0, len(live.procs))
	for p := range live.procs {
		procs = append(procs, p)
	}
	live.mu.Unlock()
	for _, p := range procs {
		p.kill()
	}
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startServer execs the server binary on dataDir and waits until it
// reports ready. Its stderr (start-up and access log) goes to logPath.
func startServer(bin, dataDir, logPath string) (*serverProc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, fmt.Errorf("picking a port: %w", err)
	}
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logFile.Close() // the child holds its own descriptor
	args := append([]string{"-addr", addr, "-data-dir", dataDir}, serverFlags()...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	// If the harness dies without running its cleanup (SIGKILL), the
	// kernel takes the server down with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	p := &serverProc{cmd: cmd, base: "http://" + addr, logPath: logPath, exited: make(chan struct{})}
	live.mu.Lock()
	if live.procs == nil {
		live.procs = map[*serverProc]struct{}{}
	}
	live.procs[p] = struct{}{}
	live.mu.Unlock()
	go func() {
		_ = cmd.Wait() // the exit status of a server we signalled carries no news
		live.mu.Lock()
		delete(live.procs, p)
		live.mu.Unlock()
		close(p.exited)
	}()
	if err := p.waitReady(start); err != nil {
		p.kill()
		return nil, err
	}
	return p, nil
}

// waitReady polls /v1/health/ready until it answers 200.
func (p *serverProc) waitReady(start time.Time) error {
	c, err := client.New(p.base, client.WithRetries(0))
	if err != nil {
		return err
	}
	deadline := start.Add(readyTimeout)
	for time.Now().Before(deadline) {
		select {
		case <-p.exited:
			return fmt.Errorf("server exited during start-up; see %s", p.logPath)
		default:
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		_, err := c.Ready(ctx)
		cancel()
		if err == nil {
			p.bootTime = time.Since(start)
			return nil
		}
		time.Sleep(readyPoll)
	}
	return fmt.Errorf("server not ready within %s; see %s", readyTimeout, p.logPath)
}

// stop sends SIGTERM and waits for the exit, which includes the drain
// and the shutdown checkpoint. It returns how long that took.
func (p *serverProc) stop() (time.Duration, error) {
	start := time.Now()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return 0, err
	}
	select {
	case <-p.exited:
		return time.Since(start), nil
	case <-time.After(stopTimeout):
		p.kill()
		return time.Since(start), fmt.Errorf("server did not exit within %s of SIGTERM; killed", stopTimeout)
	}
}

// kill ends the server at once (no checkpoint) and waits for it.
func (p *serverProc) kill() {
	_ = p.cmd.Process.Kill() // already gone is fine
	<-p.exited
}

func (p *serverProc) pid() int { return p.cmd.Process.Pid }

// clockTick is the kernel's USER_HZ, the unit of utime and stime in
// /proc/<pid>/stat; it is 100 on every Linux Go supports.
const clockTick = 100

// cpuSeconds reads the CPU time (user + system) the server has used.
func (p *serverProc) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.pid()))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields are counted
	// from the closing parenthesis.
	s := string(raw)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("unexpected /proc stat line %q", s)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", s)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64) // field 14
	stime, err2 := strconv.ParseFloat(f[12], 64) // field 15
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (utime + stime) / clockTick, nil
}

// peakRSSMB reads VmHWM, the high-water mark of the server's resident
// set, in MiB.
func (p *serverProc) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.pid()))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// serverMetrics is the body of GET /v1/metrics.
type serverMetrics struct {
	Counters  map[string]int64 `json:"counters"`
	PlanCache struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"plan_cache"`
}

// scrape fetches the server's counters. The client SDK has no call for
// this route, so it is a plain GET.
func (p *serverProc) scrape() (*serverMetrics, error) {
	resp, err := http.Get(p.base + "/v1/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/metrics: %s", resp.Status)
	}
	var m serverMetrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("decoding /v1/metrics: %w", err)
	}
	return &m, nil
}
