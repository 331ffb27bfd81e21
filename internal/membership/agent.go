package membership

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// Agent is the worker-side half of the protocol: it registers the worker
// with the coordinator, heartbeats on Interval, and re-joins automatically
// when a heartbeat answers 404 (evicted while partitioned, or the
// coordinator restarted). Run blocks until the context is cancelled;
// Leave sends the voluntary departure during worker shutdown.
type Agent struct {
	// Coordinator is the fleet endpoint base URL (oracleherd -listen).
	Coordinator string
	// ID is the worker's advertised base URL — what the coordinator will
	// dispatch shards to.
	ID          string
	Fingerprint string
	Build       BuildInfo
	// Interval is the heartbeat cadence (default 2s). The coordinator's
	// TTL should be several intervals so one dropped beat is harmless.
	Interval time.Duration
	// Report supplies the per-beat load signals; nil reports zeros.
	Report func() Heartbeat
	// OnTenantGen, when set, receives the coordinator's tenant-policy
	// generation from each join/heartbeat ack. The oracled glue compares it
	// against the local generation and syncs + reloads when behind — how a
	// reload on the coordinator propagates to the whole fleet within one
	// heartbeat interval.
	OnTenantGen func(gen uint64)
	// Client is the HTTP client (default: 5s timeout).
	Client *http.Client
	// Logf, when set, receives agent progress lines.
	Logf func(format string, args ...any)
}

func (a *Agent) interval() time.Duration {
	if a.Interval > 0 {
		return a.Interval
	}
	return 2 * time.Second
}

func (a *Agent) client() *http.Client {
	if a.Client != nil {
		return a.Client
	}
	return &http.Client{Timeout: 5 * time.Second}
}

func (a *Agent) logf(format string, args ...any) {
	if a.Logf != nil {
		a.Logf(format, args...)
	}
}

func (a *Agent) report() Heartbeat {
	if a.Report == nil {
		return Heartbeat{}
	}
	return a.Report()
}

// Run joins the coordinator and heartbeats until ctx is cancelled. Join
// failures retry on the heartbeat cadence — the coordinator may simply not
// be up yet — except catalog-skew rejections (409), which repeat
// identically forever and are returned as a hard error.
func (a *Agent) Run(ctx context.Context) error {
	joined := false
	if err := a.Join(ctx); err != nil {
		if isConflict(err) {
			return err
		}
		a.logf("membership: join %s: %v (will retry)", a.Coordinator, err)
	} else {
		joined = true
	}
	t := time.NewTicker(a.interval())
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
		if !joined {
			if err := a.Join(ctx); err != nil {
				if isConflict(err) {
					return err
				}
				a.logf("membership: join %s: %v (will retry)", a.Coordinator, err)
				continue
			}
			joined = true
			continue
		}
		err := a.beat(ctx)
		switch {
		case err == nil:
		case isNotFound(err):
			// Evicted (or a fresh coordinator): register again right away.
			a.logf("membership: heartbeat rejected, re-joining %s", a.Coordinator)
			if err := a.Join(ctx); err != nil {
				if isConflict(err) {
					return err
				}
				joined = false
			}
		case ctx.Err() != nil:
			return ctx.Err()
		default:
			// Transient coordinator trouble: keep beating; the TTL gives us
			// several intervals of slack before eviction.
			a.logf("membership: heartbeat %s: %v", a.Coordinator, err)
		}
	}
}

// Join registers the worker once.
func (a *Agent) Join(ctx context.Context) error {
	return a.post(ctx, "/v1/fleet/join", JoinRequest{
		ID:          a.ID,
		Fingerprint: a.Fingerprint,
		Build:       a.Build,
		Heartbeat:   a.report(),
	})
}

func (a *Agent) beat(ctx context.Context) error {
	return a.post(ctx, "/v1/fleet/heartbeat", heartbeatRequest{ID: a.ID, Heartbeat: a.report()})
}

// Leave announces a voluntary departure — best effort, bounded by ctx; a
// missed leave just costs the coordinator one TTL sweep.
func (a *Agent) Leave(ctx context.Context) error {
	return a.post(ctx, "/v1/fleet/leave", leaveRequest{ID: a.ID})
}

// statusError carries an HTTP rejection through the agent's retry logic.
type statusError struct {
	status int
	body   string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("membership: status %d: %s", e.status, e.body)
}

func isNotFound(err error) bool {
	se, ok := err.(*statusError)
	return ok && se.status == http.StatusNotFound
}

func isConflict(err error) bool {
	se, ok := err.(*statusError)
	return ok && se.status == http.StatusConflict
}

func (a *Agent) post(ctx context.Context, path string, payload any) error {
	body, err := json.Marshal(payload)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, "POST", a.Coordinator+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := a.client().Do(req)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return &statusError{status: resp.StatusCode, body: string(bytes.TrimSpace(msg))}
	}
	if a.OnTenantGen != nil {
		// Join and heartbeat acks carry the coordinator's tenant-policy
		// generation; a leave ack decodes with a zero gen and is skipped.
		var ack memberAck
		if err := json.NewDecoder(io.LimitReader(resp.Body, maxFleetBody)).Decode(&ack); err == nil &&
			ack.CoordinatorTenantGen > 0 {
			a.OnTenantGen(ack.CoordinatorTenantGen)
		}
	}
	return nil
}
