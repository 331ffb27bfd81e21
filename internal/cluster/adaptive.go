package cluster

import (
	"sync"
	"time"
)

// ewmaAlpha weights the newest per-unit service-time sample when updating
// a worker's moving average. 0.4 reacts within a few shards to a worker
// speeding up or slowing down without letting one outlier dominate.
const ewmaAlpha = 0.4

// sizer chooses how many units the next lease carved for a worker should
// hold. It keeps an EWMA of each worker's observed per-unit service time
// and sizes the lease so one shard takes about TargetShardDuration on that
// worker: fast workers get big shards (fewer round trips, better
// units-cache amortization), slow workers get small ones (cheap retries,
// early straggler detection). With min == max every lease is that size:
// the probe, the clamp and the tail guard's floor all answer min.
//
// Two guards bound the feedback loop:
//
//   - a worker with no history yet gets MinShardSize — a cheap probe whose
//     duration seeds the EWMA;
//   - near the campaign tail the units not yet leased are spread
//     across every dispatch slot (shrinking toward the MinShardSize floor)
//     so the makespan is not set by whoever happened to grab the last big
//     shard.
//
// Sizing only changes which contiguous ranges are leased, never what the
// units compute or the order the sink flushes them, so the merged artifact
// stays byte-identical to a local run whatever the controller decides.
type sizer struct {
	min    int           // adaptive floor
	max    int           // adaptive ceiling
	target time.Duration // aimed-for shard service time

	mu    sync.Mutex
	slots int                // live fleet dispatch slots, for the tail guard
	ewma  map[string]float64 // worker -> seconds per unit
}

func newSizer(cfg *Config, workers int) *sizer {
	slots := workers * cfg.Slots
	if slots < 1 {
		slots = 1
	}
	return &sizer{
		min:    cfg.MinShardSize,
		max:    cfg.MaxShardSize,
		target: cfg.TargetShardDuration,
		slots:  slots,
		ewma:   make(map[string]float64, workers),
	}
}

// observe feeds one successful dispatch — units executed in d on worker —
// into the worker's moving average. Failures are never observed: backoff
// and the breaker handle those, and a failed dispatch's duration measures
// the failure, not the service rate.
func (z *sizer) observe(worker string, units int, d time.Duration) {
	if units <= 0 || d <= 0 {
		return
	}
	per := d.Seconds() / float64(units)
	z.mu.Lock()
	defer z.mu.Unlock()
	if old, ok := z.ewma[worker]; ok {
		z.ewma[worker] = ewmaAlpha*per + (1-ewmaAlpha)*old
	} else {
		z.ewma[worker] = per
	}
}

// sizeFor picks the next lease size for worker given how many runnable
// units are not yet leased.
func (z *sizer) sizeFor(worker string, remaining int) int {
	z.mu.Lock()
	per, ok := z.ewma[worker]
	slots := z.slots
	z.mu.Unlock()
	size := z.min
	if ok && per > 0 {
		size = int(z.target.Seconds() / per)
		if size < z.min {
			size = z.min
		}
		if size > z.max {
			size = z.max
		}
	}
	// Tail guard: once the queue is shorter than one round of full-size
	// shards, hand out ceil(remaining/slots) so every slot shares the tail.
	if tail := (remaining + slots - 1) / slots; tail < size {
		size = tail
		if size < z.min {
			size = z.min
		}
	}
	return size
}

// perUnit reports the worker's current EWMA estimate in seconds per unit
// (0 when no sample yet); the metrics page exposes it.
func (z *sizer) perUnit(worker string) float64 {
	z.mu.Lock()
	defer z.mu.Unlock()
	return z.ewma[worker]
}

// meanPerUnit averages the per-unit EWMA across workers with at least one
// sample (0 before any). Retired workers have left the map, so this is the
// live fleet's service rate — the autoscaling advisor's main signal.
func (z *sizer) meanPerUnit() float64 {
	z.mu.Lock()
	defer z.mu.Unlock()
	var sum float64
	n := 0
	for _, per := range z.ewma {
		if per > 0 {
			sum += per
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// retire drops a departed worker's moving average. Without this a
// long-lived coordinator churning through members would hold an EWMA entry
// for every worker ever seen; a rejoining worker re-seeds from a
// MinShardSize probe instead of inheriting stale history.
func (z *sizer) retire(worker string) {
	z.mu.Lock()
	defer z.mu.Unlock()
	delete(z.ewma, worker)
}

// setSlots re-aims the tail guard at the live fleet's dispatch-slot count
// as members join and leave.
func (z *sizer) setSlots(n int) {
	if n < 1 {
		n = 1
	}
	z.mu.Lock()
	defer z.mu.Unlock()
	z.slots = n
}
