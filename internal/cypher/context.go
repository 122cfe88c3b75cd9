package cypher

import (
	"context"
	"errors"
	"sync/atomic"
)

// This file makes execution cancellation-aware. The executor polls the
// execution context at a fixed row/candidate interval and aborts with
// a *CanceledError as soon as the context is done. The check interval
// bounds how much work one execution performs after cancellation: at
// most cancelCheckInterval match candidates (or
// buffered rows) plus whatever the current candidate expansion emits.
//
// Cancellation matters operationally because queries run under the
// graph's read lock: a server deadline that cannot stop a runaway scan
// keeps a worker and the lock busy long after the client has gone.
// With these checks, the server's per-endpoint deadlines (see
// internal/server) genuinely free both.

// ErrCanceled is the sentinel every cancellation-aborted execution
// matches: errors.Is(err, ErrCanceled) is true whether the context was
// canceled explicitly or its deadline expired. The underlying cause
// (context.Canceled or context.DeadlineExceeded) remains reachable
// through errors.Is as well.
var ErrCanceled = errors.New("cypher: execution canceled")

// CanceledError reports an execution aborted by context cancellation.
// It matches ErrCanceled and unwraps to the context's own error, so
// callers can distinguish deadline expiry from explicit cancellation.
type CanceledError struct {
	// Cause is the context error that stopped execution:
	// context.Canceled or context.DeadlineExceeded.
	Cause error
}

func (e *CanceledError) Error() string {
	return "cypher: execution canceled: " + e.Cause.Error()
}

// Is matches the ErrCanceled sentinel.
func (e *CanceledError) Is(target error) bool { return target == ErrCanceled }

// Unwrap exposes the context error for errors.Is(err,
// context.DeadlineExceeded) checks.
func (e *CanceledError) Unwrap() error { return e.Cause }

// cancelCheckInterval is how many executor steps (match candidates,
// streamed rows, drained rows) pass between context polls. Polling is
// one atomic load inside ctx.Err(), so the interval trades a little
// latency-to-abort for near-zero steady-state overhead.
const cancelCheckInterval = 256

// Cumulative cancellation counters, mirrored into the metrics registry
// by core.Pipeline (process-global, like the streaming counters).
var (
	execCanceled         atomic.Int64 // all cancellation aborts
	execDeadlineExceeded atomic.Int64 // the deadline-expiry subset
)

// CancelStats reports the cumulative cancellation counters: canceled is
// every execution aborted by a done context; deadlineExceeded is the
// subset whose context hit its deadline (as opposed to explicit
// cancellation).
func CancelStats() (canceled, deadlineExceeded int64) {
	return execCanceled.Load(), execDeadlineExceeded.Load()
}

// newCanceledError wraps a context error and bumps the counters.
func newCanceledError(cause error) error {
	execCanceled.Add(1)
	if errors.Is(cause, context.DeadlineExceeded) {
		execDeadlineExceeded.Add(1)
	}
	return &CanceledError{Cause: cause}
}

// checkCancel is the executors' periodic cancellation poll: it counts
// steps and checks the context every cancelCheckInterval-th call.
// evalCtx is owned by a single execution goroutine, so the plain int
// counter needs no synchronization.
func (c *evalCtx) checkCancel() error {
	if c.ctx == nil {
		return nil
	}
	c.cancelSteps++
	if c.cancelSteps < cancelCheckInterval {
		return nil
	}
	c.cancelSteps = 0
	return c.pollCancel()
}

// pollCancel checks the context immediately (used at execution and
// clause boundaries, where a check is cheap relative to the work that
// follows).
func (c *evalCtx) pollCancel() error {
	if c.ctx == nil {
		return nil
	}
	if err := c.ctx.Err(); err != nil {
		return newCanceledError(err)
	}
	return nil
}
