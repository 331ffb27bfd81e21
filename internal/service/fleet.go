package service

import (
	"math"
	"time"
)

// This file is the worker's membership surface: the drain flag a shutdown
// raises before the listener closes, and the per-unit service-time EWMA
// the shard path maintains — the two load signals an elastic-fleet agent
// sends the coordinator with every join (see internal/membership).

// unitEwmaAlpha weights the newest shard's per-unit seconds; matches the
// coordinator-side sizer so both ends of the fleet agree on the rate.
const unitEwmaAlpha = 0.4

// BeginDrain marks the server draining without stopping it: /healthz
// answers "draining" with a Retry-After bound, fleet re-joins carry the flag,
// and the coordinator stops handing the worker new leases while in-flight
// work finishes. Call it at the top of a graceful shutdown, before the
// HTTP listener closes. Stop implies it.
func (s *Server) BeginDrain() { s.drain.Store(true) }

// Draining reports whether the server is draining (BeginDrain) or
// stopped (Stop).
func (s *Server) Draining() bool { return s.drain.Load() || s.draining.Load() }

// drainRetryAfter is the Retry-After bound a draining server advertises:
// nothing in flight can outlive the request deadline.
func (s *Server) drainRetryAfter() time.Duration { return s.cfg.RequestTimeout }

// observeUnitSeconds folds one shard's per-unit service time into the
// EWMA via a compare-and-swap loop on the float's bits.
func (s *Server) observeUnitSeconds(perUnit float64) {
	if perUnit <= 0 || math.IsInf(perUnit, 0) || math.IsNaN(perUnit) {
		return
	}
	for {
		old := s.unitSecBits.Load()
		prev := math.Float64frombits(old)
		next := perUnit
		if prev > 0 {
			next = unitEwmaAlpha*perUnit + (1-unitEwmaAlpha)*prev
		}
		if s.unitSecBits.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// UnitSeconds returns the EWMA of per-unit shard service time, 0 before
// the first shard.
func (s *Server) UnitSeconds() float64 {
	return math.Float64frombits(s.unitSecBits.Load())
}

// FleetReport snapshots the signals one membership join carries:
// queued work, the per-unit service-time estimate, and the drain flag.
func (s *Server) FleetReport() (queueDepth int, unitSeconds float64, draining bool) {
	return int(s.metrics.queued.Load()), s.UnitSeconds(), s.Draining()
}
