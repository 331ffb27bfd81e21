package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// setupReps is how often a workload sets its system up from scratch in one
// run; setup_s is the median, so one slow process start does not move it.
const setupReps = 5

// setUp runs fn setupReps times, tearing down every set-up but the last,
// and returns the last set-up's stop function with the median duration in
// seconds.
func (b *bench) setUp(fn func() (stop func(), err error)) (stop func(), seconds float64, err error) {
	times := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		sp := b.trace.begin(0, "setup")
		t0 := time.Now()
		stop, err = fn()
		times = append(times, time.Since(t0).Seconds())
		b.trace.end(sp, nil)
		if err != nil {
			return nil, 0, err
		}
		if i < setupReps-1 {
			stop()
		}
	}
	return stop, median(times), nil
}

// sample is one successful operation: when it finished, counted from the
// start of the timed window, and how long it took, both in seconds.
type sample struct{ at, lat float64 }

// closedLoop runs clients goroutines, each issuing its next operation as
// soon as the previous one returns, until dur has elapsed. op performs
// operation i of client c and returns its latency, or an error if it
// failed.
func closedLoop(clients int, dur time.Duration, op func(c, i int) (time.Duration, error)) (done []sample, attempted, failed int64) {
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		nAttempt atomic.Int64
		nFailed  atomic.Int64
	)
	start := time.Now()
	deadline := start.Add(dur)
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			local := make([]sample, 0, 1<<14)
			for i := 0; ; i++ {
				now := time.Now()
				if !now.Before(deadline) {
					break
				}
				nAttempt.Add(1)
				d, err := op(c, i)
				if err != nil {
					nFailed.Add(1)
					continue
				}
				local = append(local, sample{at: now.Add(d).Sub(start).Seconds(), lat: d.Seconds()})
			}
			mu.Lock()
			done = append(done, local...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return done, nAttempt.Load(), nFailed.Load()
}

// sliceSeconds is the length of the slices a serve window is cut into.
// Each end-to-end figure is taken per slice and reported as the median
// over slices, so a burst of outside load on a shared machine moves a few
// slices, not the result.
const sliceSeconds = 1.0

// slicedMetrics computes the end-to-end metrics per slice of the timed
// window and reports each one's median over the slices.
func slicedMetrics(done []sample, dur time.Duration, setup float64) map[string]metric {
	n := int(dur.Seconds() / sliceSeconds)
	if n < 1 {
		n = 1
	}
	slices := make([][]float64, n)
	for _, s := range done {
		i := int(s.at / sliceSeconds)
		if i >= n {
			i = n - 1 // operations finishing after the deadline join the last slice
		}
		slices[i] = append(slices[i], s.lat)
	}
	var p50, p90, tput []float64
	for _, lat := range slices {
		sort.Float64s(lat)
		p50 = append(p50, quantile(lat, 0.50))
		p90 = append(p90, quantile(lat, 0.90))
		tput = append(tput, float64(len(lat))/sliceSeconds)
	}
	return map[string]metric{
		"latency_p50_ms":   {median(p50) * 1e3, "ms"},
		"latency_p90_ms":   {median(p90) * 1e3, "ms"},
		"throughput_per_s": {median(tput), "1/s"},
		"setup_s":          {setup, "s"},
	}
}

// quantile returns the q-quantile of sorted values, interpolating between
// neighbouring ranks; 0 for no values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// latencyMetrics turns operation latencies (seconds) and the measured
// window into the end-to-end metrics every workload reports.
func latencyMetrics(lat []float64, elapsed time.Duration, work float64, setup float64) map[string]metric {
	sort.Float64s(lat)
	return map[string]metric{
		"latency_p50_ms":   {quantile(lat, 0.50) * 1e3, "ms"},
		"latency_p90_ms":   {quantile(lat, 0.90) * 1e3, "ms"},
		"throughput_per_s": {work / elapsed.Seconds(), "1/s"},
		"setup_s":          {setup, "s"},
	}
}

// span is one timed call the benchmark made into the system. Attrs carry
// what the system itself reported about the call, such as the execution
// time a response states.
type span struct {
	ID     int64            `json:"id"`
	Parent int64            `json:"parent,omitempty"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Attrs  map[string]int64 `json:"attrs,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	origin time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span; end closes it. Both are no-ops on a nil tracer.
func (t *tracer) begin(parent int64, name string) *span {
	if t == nil {
		return nil
	}
	return &span{ID: t.nextID.Add(1), Parent: parent, Name: name, Start: time.Since(t.origin).Nanoseconds()}
}

func (t *tracer) end(s *span, attrs map[string]int64) {
	if t == nil {
		return
	}
	s.End = time.Since(t.origin).Nanoseconds()
	s.Attrs = attrs
	t.mu.Lock()
	t.spans = append(t.spans, *s)
	t.mu.Unlock()
}

// id is the span's ID, 0 (no parent) for the nil span of an untraced run.
func (s *span) id() int64 {
	if s == nil {
		return 0
	}
	return s.ID
}

// record adds a finished span from explicit times.
func (t *tracer) record(parent int64, name string, start, end time.Time, attrs map[string]int64) {
	if t == nil {
		return
	}
	s := span{ID: t.nextID.Add(1), Parent: parent, Name: name,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds(), Attrs: attrs}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores the spans as JSON lines, ordered by start time.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	sort.Slice(t.spans, func(i, j int) bool { return t.spans[i].Start < t.spans[j].Start })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
