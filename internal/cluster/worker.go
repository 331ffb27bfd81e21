package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"oraclesize/internal/campaign"
	"oraclesize/internal/catalog"
	"oraclesize/internal/membership"
)

// shardRequest and shardResponse mirror the oracled /v1/shard JSON wire
// shapes; the JSON field names are the contract, not the Go types.
type shardRequest struct {
	Spec  *campaign.Spec `json:"spec"`
	Start int            `json:"start"`
	End   int            `json:"end"`
}

type shardResponse struct {
	SpecHash string              `json:"spec_hash"`
	Units    [][]campaign.Record `json:"units"`
}

// workerHealthz is the slice of the /healthz payload the coordinator reads.
type workerHealthz struct {
	Status             string               `json:"status"`
	Build              membership.BuildInfo `json:"build"`
	CatalogFingerprint string               `json:"catalog_fingerprint"`
}

// DispatchError is a failed shard dispatch, carrying the HTTP status and
// the worker's Retry-After hint when it shed load. The backoff path reads
// both via errors.As; fleetsim constructs them to model 503 storms.
type DispatchError struct {
	// Status is the HTTP status code, 0 for transport-level failures.
	Status int
	// RetryAfter is the worker's shed hint; it overrides a shorter backoff.
	RetryAfter time.Duration
	// Err describes the failure.
	Err error
}

func (e *DispatchError) Error() string { return e.Err.Error() }
func (e *DispatchError) Unwrap() error { return e.Err }

// worker is one fleet member: its HTTP client, the failure bookkeeping —
// backoff gate and circuit breaker — that decides when it may be handed
// work, and, for a worker that joined through the fleet endpoint, its
// registration.
type worker struct {
	url string
	cfg *Config
	m   *coordMetrics
	rng *lockedRand

	// completions counts shards this worker delivered first.
	completions atomic.Int64

	mu sync.Mutex
	// up / probeErr / build reflect the latest health probe, fingerprint
	// the catalog fingerprint of the latest probe or join.
	up          bool
	probeErr    error
	build       membership.BuildInfo
	fingerprint string
	// gone marks a worker evicted from the fleet: its struct stays behind
	// as a tombstone so slot loops racing the eviction read a flag instead
	// of a nil, but it is never gated work again and its index is retired.
	gone bool
	// draining marks a worker whose health probe or latest join reported
	// a draining status: it keeps its leases but is handed no new ones,
	// and flips back to active if a later report clears the drain. A
	// member's listed Status is read off this same bit.
	draining bool
	// member is the registration of a worker that joined through the
	// fleet endpoint — its latest load signals, join and last-seen times
	// and re-join count — and nil for a -workers founder that never
	// joined, which stays out of the member list. deadline is the instant
	// after which Sweep probes it: the last join plus MemberTTL,
	// pushed further by a probe that finds it alive.
	member   *membership.Member
	deadline time.Time
	// consecFails drives both backoff growth and the breaker; notBefore is
	// the earliest next dispatch (backoff or Retry-After); openUntil is the
	// breaker cooldown deadline; trialInFlight limits the half-open state
	// to a single probe dispatch.
	consecFails   int
	notBefore     time.Time
	openUntil     time.Time
	trialInFlight bool
}

// probeTimeout bounds one /healthz probe.
const probeTimeout = 5 * time.Second

func newWorker(url string, cfg *Config, m *coordMetrics, rng *lockedRand) *worker {
	return &worker{url: url, cfg: cfg, m: m, rng: rng}
}

// gate reports whether the worker may be handed a dispatch now; when not,
// it returns how long to wait before asking again.
func (w *worker) gate() (wait time.Duration, ok bool) {
	now := w.cfg.Clock.Now()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.gone {
		// Evicted: the slot loop exits as soon as it sees the tombstone;
		// the wait only matters for a racing caller.
		return time.Hour, false
	}
	if w.draining {
		// No new leases while draining; poll on the breaker cadence in
		// case a re-join reactivates the worker.
		return w.cfg.BreakerCooldown, false
	}
	if now.Before(w.notBefore) {
		return w.notBefore.Sub(now), false
	}
	if w.consecFails >= w.cfg.BreakerThreshold {
		if now.Before(w.openUntil) {
			return w.openUntil.Sub(now), false
		}
		if w.trialInFlight {
			// Half-open: exactly one trial dispatch at a time.
			return w.cfg.BreakerCooldown / 4, false
		}
		w.trialInFlight = true
	}
	return 0, true
}

// fail charges one dispatch failure (see failLocked).
func (w *worker) fail(err error) {
	now := w.cfg.Clock.Now()
	w.mu.Lock()
	defer w.mu.Unlock()
	w.failLocked(err, now)
}

// failLocked charges one failure, of a dispatch or of a health probe:
// exponential backoff with jitter (overridden upward by a Retry-After
// hint), and breaker opening at the threshold — including re-opening when
// a half-open trial fails. Callers hold w.mu.
func (w *worker) failLocked(err error, now time.Time) {
	w.trialInFlight = false
	w.consecFails++
	shift := w.consecFails - 1
	if shift > 16 {
		shift = 16
	}
	backoff := w.cfg.BackoffBase << shift
	if backoff > w.cfg.BackoffMax || backoff <= 0 {
		backoff = w.cfg.BackoffMax
	}
	var de *DispatchError
	if errors.As(err, &de) && de.RetryAfter > backoff {
		backoff = de.RetryAfter
	}
	w.notBefore = now.Add(w.rng.jitter(backoff))
	if w.consecFails >= w.cfg.BreakerThreshold {
		w.openUntil = now.Add(w.cfg.BreakerCooldown)
	}
}

// ok resets the failure state after a successful dispatch, closing the
// breaker if it was half-open.
func (w *worker) ok() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.up = true
	w.consecFails = 0
	w.trialInFlight = false
	w.notBefore = time.Time{}
	w.openUntil = time.Time{}
}

// breakerOpen reports whether the breaker currently refuses dispatches.
func (w *worker) breakerOpen() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.consecFails >= w.cfg.BreakerThreshold && w.cfg.Clock.Now().Before(w.openUntil)
}

// healthSnapshot is the probe outcome Probe logs.
type healthSnapshot struct {
	up          bool
	err         error
	build       membership.BuildInfo
	fingerprint string
}

func (w *worker) health() healthSnapshot {
	w.mu.Lock()
	defer w.mu.Unlock()
	return healthSnapshot{up: w.up, err: w.probeErr, build: w.build, fingerprint: w.fingerprint}
}

// markUp seeds the worker as healthy without a network probe — the
// simulated-fleet path, where /healthz does not exist.
func (w *worker) markUp() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.up = true
}

// retire turns the worker into a tombstone: evicted from the fleet, never
// gated work again, its registration dropped.
func (w *worker) retire() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.gone = true
	w.up = false
	w.member = nil
}

// vetted reports whether the latest probe or join showed the
// coordinator's catalog fingerprint.
func (w *worker) vetted() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.fingerprint == catalog.Fingerprint()
}

func (w *worker) isGone() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.gone
}

// setDraining flips the no-new-leases flag.
func (w *worker) setDraining(v bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.draining = v
}

func (w *worker) isDraining() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.draining
}

// probe GETs /healthz and records the outcome. An unreachable worker is
// charged one failure, like a failed dispatch. It reports whether the
// worker answered, whether it answered "draining", and the Retry-After
// hint that bounds how long a draining worker's in-flight work may still
// take.
func (w *worker) probe(ctx context.Context) (up, draining bool, retryAfter time.Duration) {
	ctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	var h workerHealthz
	header, err := w.getJSON(ctx, w.url+"/healthz", &h)
	now := w.cfg.Clock.Now()
	w.mu.Lock()
	defer w.mu.Unlock()
	if err != nil {
		w.up = false
		w.probeErr = err
		w.failLocked(err, now)
		return false, false, 0
	}
	w.up = true
	w.probeErr = nil
	w.build = h.Build
	w.fingerprint = h.CatalogFingerprint
	// A worker that answers its probe with a draining status stays in the
	// fleet but is handed no new leases until a later probe or join
	// clears the drain.
	w.draining = h.Status == "draining"
	return true, w.draining, parseRetryAfter(header.Get("Retry-After"))
}

// getJSON GETs url into dst and returns the response header.
func (w *worker) getJSON(ctx context.Context, url string, dst any) (http.Header, error) {
	req, err := http.NewRequestWithContext(ctx, "GET", url, nil)
	if err != nil {
		return nil, err
	}
	if w.cfg.APIKey != "" {
		req.Header.Set("X-API-Key", w.cfg.APIKey)
	}
	resp, err := w.cfg.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: GET %s: status %d", url, resp.StatusCode)
	}
	return resp.Header, json.NewDecoder(resp.Body).Decode(dst)
}

// register records a join through the fleet endpoint: a worker without a
// registration gets one (fresh), and a live member's re-join, its
// heartbeat, refreshes it in place and counts in Heartbeats. Either way the
// join's load signals replace the old ones, its drain flag (wasDraining is
// the one it replaced) sets the gate, and the deadline restarts.
func (w *worker) register(req membership.JoinRequest, now time.Time) (m membership.Member, fresh, wasDraining bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.member == nil {
		w.member = &membership.Member{ID: w.url, JoinedAt: now}
		fresh = true
	} else {
		w.member.Heartbeats++
	}
	wasDraining = w.draining
	w.fingerprint = req.Fingerprint
	w.member.Fingerprint = req.Fingerprint
	w.member.Build = req.Build
	w.member.QueueDepth = req.QueueDepth
	w.member.UnitSeconds = req.UnitSeconds
	w.member.LastSeen = now
	w.draining = req.Draining
	w.deadline = now.Add(w.cfg.MemberTTL)
	return w.memberLocked(), fresh, wasDraining
}

// memberLocked copies the registration, with its Status read off the
// drain flag that also closes the gate. Callers hold w.mu.
func (w *worker) memberLocked() membership.Member {
	m := *w.member
	m.Status = membership.StatusActive
	if w.draining {
		m.Status = membership.StatusDraining
	}
	return m
}

// asMember snapshots the worker's fleet row; ok is false for a departed
// worker and for a -workers founder that never joined.
func (w *worker) asMember() (m membership.Member, ok bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.gone || w.member == nil {
		return membership.Member{}, false
	}
	return w.memberLocked(), true
}

// overdue reports whether w is a live member whose deadline passed
// before now.
func (w *worker) overdue(now time.Time) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return !w.gone && w.member != nil && now.After(w.deadline)
}

// extend moves a member's deadline, for a probe that found it alive.
func (w *worker) extend(deadline time.Time) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.deadline = deadline
}

// dispatch POSTs one shard and returns its per-unit record batches. All
// failures come back as *DispatchError so the retry path can read the
// status and Retry-After hint.
func (w *worker) dispatch(ctx context.Context, spec *campaign.Spec, sh campaign.Shard) ([][]campaign.Record, error) {
	body, err := json.Marshal(shardRequest{Spec: spec, Start: sh.Start, End: sh.End})
	if err != nil {
		return nil, fmt.Errorf("cluster: encoding %v: %w", sh, err)
	}
	req, err := http.NewRequestWithContext(ctx, "POST", w.url+"/v1/shard", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("cluster: building request for %v: %w", sh, err)
	}
	req.Header.Set("Content-Type", "application/json")
	if w.cfg.APIKey != "" {
		req.Header.Set("X-API-Key", w.cfg.APIKey)
	}
	resp, err := w.cfg.Client.Do(req)
	if err != nil {
		return nil, &DispatchError{Err: fmt.Errorf("cluster: %v on %s: %w", sh, w.url, err)}
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, &DispatchError{
			Status:     resp.StatusCode,
			RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
			Err: fmt.Errorf("cluster: %v on %s: status %d: %s",
				sh, w.url, resp.StatusCode, bytes.TrimSpace(msg)),
		}
	}
	var sr shardResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return nil, &DispatchError{Err: fmt.Errorf("cluster: decoding %v from %s: %w", sh, w.url, err)}
	}
	if len(sr.Units) != sh.Len() {
		return nil, &DispatchError{Err: fmt.Errorf("cluster: %v on %s: %d unit batches, want %d",
			sh, w.url, len(sr.Units), sh.Len())}
	}
	if want := spec.Hash(); sr.SpecHash != want {
		return nil, &DispatchError{Err: fmt.Errorf("cluster: %v on %s: spec hash %s, want %s",
			sh, w.url, sr.SpecHash, want)}
	}
	return sr.Units, nil
}

// parseRetryAfter reads a seconds-valued Retry-After header; HTTP-date
// values (rare from oracled) read as zero, falling back to backoff.
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}
