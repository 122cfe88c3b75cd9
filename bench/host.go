package main

import "time"

// The box this benchmark runs on is a small shared VM whose speed
// changes from one second and from one minute to the next. The harness
// does not correct for that — every metric is reported as measured — but
// it marks a run taken while the box was slow: a fixed piece of work
// that depends on nothing in this repository is timed right before and
// right after the measured phase, while the server is idle.

// calibBytes is the size of the buffer the calibration pass hashes.
const calibBytes = 64 << 20

// calibBuf is allocated once: a second 64 MiB buffer would only add
// page faults to the second pass.
var calibBuf []byte

// calibrate runs one FNV-1a pass over the buffer and returns how long
// it took.
func calibrate() time.Duration {
	if calibBuf == nil {
		calibBuf = make([]byte, calibBytes)
		for i := range calibBuf {
			calibBuf[i] = byte(i)
		}
	}
	start := time.Now()
	h := uint64(14695981039346656037)
	for _, b := range calibBuf {
		h = (h ^ uint64(b)) * 1099511628211
	}
	took := time.Since(start)
	if h == 0 {
		panic("bench: calibration hash is zero") // keeps the loop from being optimised away
	}
	return took
}
