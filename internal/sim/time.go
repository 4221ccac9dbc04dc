// Package sim provides the deterministic virtual-time machinery used by every
// simulated hardware component in the repository: picosecond-resolution
// clocks, FIFO service queues, and bandwidth meters.
//
// All performance experiments in the paper reproduction run on virtual time.
// Nothing in this package reads wall-clock time; two runs with the same seed
// and the same parameters produce identical timings.
package sim

import (
	"fmt"
	"time"
)

// Time is a point (or span) of simulated time measured in integer picoseconds.
//
// Picoseconds keep sub-nanosecond latencies (an L1 hit is ~1.5 ns) exact while
// still allowing ~106 days of simulated time in an int64, far beyond any
// experiment in this repository.
type Time int64

// Common spans.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// NS converts a (possibly fractional) nanosecond count to a Time.
func NS(ns float64) Time { return Time(ns * float64(Nanosecond)) }

// US converts a (possibly fractional) microsecond count to a Time.
func US(us float64) Time { return Time(us * float64(Microsecond)) }

// Nanoseconds reports t as float nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Seconds reports t as float seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Duration converts t to a time.Duration (nanosecond resolution, rounded down).
func (t Time) Duration() time.Duration { return time.Duration(t / Nanosecond) }

// String formats the time with an adaptive unit, e.g. "305ns" or "1.20us".
func (t Time) String() string {
	switch {
	case t < 0:
		return "-" + (-t).String()
	case t < Nanosecond:
		return fmt.Sprintf("%dps", int64(t))
	case t < Microsecond:
		return fmt.Sprintf("%.2fns", t.Nanoseconds())
	case t < Millisecond:
		return fmt.Sprintf("%.2fus", float64(t)/float64(Microsecond))
	case t < Second:
		return fmt.Sprintf("%.2fms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.3fs", t.Seconds())
	}
}

// MaxTime returns the later of a and b.
func MaxTime(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// Clock is a per-context virtual clock. Each simulated hardware thread (and
// each device pipeline) owns one Clock; components charge latency to the
// clock of the context performing the access.
//
// Clock is not safe for concurrent use; each simulated context is
// single-threaded by construction.
type Clock struct {
	now Time
}

// NewClock returns a clock positioned at start.
func NewClock(start Time) *Clock { return &Clock{now: start} }

// Now reports the current virtual time.
func (c *Clock) Now() Time { return c.now }

// Advance moves the clock forward by d. Negative d panics: simulated causality
// violations are always implementation bugs and must not be absorbed silently.
func (c *Clock) Advance(d Time) Time {
	if d < 0 {
		panic(fmt.Sprintf("sim: clock advanced by negative duration %v", d))
	}
	c.now += d
	return c.now
}

// AdvanceTo moves the clock forward to t if t is later than now; it never
// moves backward. It reports the resulting time.
func (c *Clock) AdvanceTo(t Time) Time {
	if t > c.now {
		c.now = t
	}
	return c.now
}

// Reset rewinds the clock to zero. Only test and harness setup code calls it.
func (c *Clock) Reset() { c.now = 0 }
