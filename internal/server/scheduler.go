package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"chatiyp/internal/metrics"
)

// scheduler is the server's admission controller: a bounded worker pool
// with a bounded wait queue in front of it. At most maxConcurrent
// requests execute at once; up to maxQueue more wait for a slot; anyone
// beyond that is rejected immediately (the handler answers 429 with
// Retry-After). A waiting request gives up when its own context ends
// (client gone, or the request deadline spent in the queue) and when
// the scheduler starts draining.
//
// Draining is the graceful-shutdown half: once drain begins, no new
// request is admitted (handlers answer 503) and drain blocks until the
// in-flight ones have released their slots.
//
// The scheduler reports live levels and event counts into the metrics
// registry the server shares with its pipeline, so /v1/metrics shows
// saturation as it happens:
//
//	server.inflight        gauge  requests currently executing
//	server.queued          gauge  requests waiting for a slot
//	server.admitted        count  requests that got a slot
//	server.rejected        count  queue-full rejections (429)
//	server.rejected_draining count rejections during shutdown (503)
//	server.queue_canceled  count  requests whose ctx ended while queued
//	server.dead_on_arrival count  requests whose ctx was done at admission
type scheduler struct {
	sem     chan struct{} // buffered to maxConcurrent; holding a token = executing
	maxQ    int
	drainCh chan struct{} // closed when draining starts

	mu       sync.Mutex // guards draining + wg.Add ordering
	draining bool
	wg       sync.WaitGroup // one unit per admitted, unreleased request

	// queueDepth is the admission-control state: the gauge below only
	// mirrors it, because registry gauges are externally mutable
	// (Registry.Reset would otherwise corrupt the 429 bound).
	queueDepth atomic.Int64

	inflight  *metrics.Gauge
	queued    *metrics.Gauge
	admitted  *metrics.Counter
	rejected  *metrics.Counter
	rejDrain  *metrics.Counter
	queueCan  *metrics.Counter
	deadOnArr *metrics.Counter
}

// Admission errors. Handlers translate these into HTTP statuses.
var (
	// errOverloaded reports a full wait queue: the client should back
	// off and retry (429).
	errOverloaded = errors.New("server: overloaded, queue full")
	// errDraining reports a shutdown in progress (503).
	errDraining = errors.New("server: draining, not accepting requests")
)

// newScheduler builds a scheduler registering its instruments in reg.
func newScheduler(maxConcurrent, maxQueue int, reg *metrics.Registry) *scheduler {
	return &scheduler{
		sem:       make(chan struct{}, maxConcurrent),
		maxQ:      maxQueue,
		drainCh:   make(chan struct{}),
		inflight:  reg.Gauge("server.inflight"),
		queued:    reg.Gauge("server.queued"),
		admitted:  reg.Counter("server.admitted"),
		rejected:  reg.Counter("server.rejected"),
		rejDrain:  reg.Counter("server.rejected_draining"),
		queueCan:  reg.Counter("server.queue_canceled"),
		deadOnArr: reg.Counter("server.dead_on_arrival"),
	}
}

// acquire admits one request: it returns a release closure on success,
// or errOverloaded / errDraining / ctx.Err() on rejection. release is
// idempotent and must be called exactly when the request's work is
// done.
func (s *scheduler) acquire(ctx context.Context) (release func(), err error) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		s.rejDrain.Inc()
		return nil, errDraining
	}
	// A dead-on-arrival request (client gone, deadline already spent)
	// must not take a slot ahead of live waiters; the queued path
	// re-checks via its select, but the fast path would otherwise
	// admit it. Counted separately from queue_canceled — it never
	// entered the queue, so it says nothing about queue pressure.
	if err := ctx.Err(); err != nil {
		s.deadOnArr.Inc()
		return nil, err
	}
	select {
	case s.sem <- struct{}{}:
		// Free slot, no queueing.
	default:
		// All slots busy: wait in the bounded queue. The private atomic
		// is the bound; the gauge mirrors it with its own atomic
		// increments (a Set of a stale snapshot could park the gauge on
		// a phantom value forever).
		if s.queueDepth.Add(1) > int64(s.maxQ) {
			s.queueDepth.Add(-1)
			s.rejected.Inc()
			return nil, errOverloaded
		}
		s.queued.Inc()
		leave := func() { s.queueDepth.Add(-1); s.queued.Dec() }
		select {
		case s.sem <- struct{}{}:
			leave()
		case <-ctx.Done():
			leave()
			s.queueCan.Inc()
			return nil, ctx.Err()
		case <-s.drainCh:
			leave()
			s.rejDrain.Inc()
			return nil, errDraining
		}
	}
	// Register the in-flight unit under the same lock drain uses to
	// flip the flag, so wg.Add can never race wg.Wait.
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		<-s.sem
		s.rejDrain.Inc()
		return nil, errDraining
	}
	s.wg.Add(1)
	s.mu.Unlock()
	s.inflight.Inc()
	s.admitted.Inc()
	var once sync.Once
	return func() {
		once.Do(func() {
			<-s.sem
			s.inflight.Dec()
			s.wg.Done()
		})
	}, nil
}

// snapshot reports the scheduler's live levels for the readiness
// endpoint. The queue depth comes from the private atomic (the bound),
// not the externally mutable gauge.
func (s *scheduler) snapshot() (inflight, queued int64, draining bool) {
	s.mu.Lock()
	draining = s.draining
	s.mu.Unlock()
	return s.inflight.Value(), s.queueDepth.Load(), draining
}

// drain stops admission (queued waiters abort immediately, new arrivals
// are rejected) and waits for the in-flight requests to release, or for
// ctx to give up on them.
func (s *scheduler) drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.drainCh)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
