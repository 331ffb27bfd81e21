package membership

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"
)

// Agent is the worker-side half of the protocol: it joins the coordinator
// and repeats the join on Interval, so a live member's re-join is its
// heartbeat and an evicted worker (or one whose coordinator restarted) is
// registered again by its next tick. Run blocks until the context is
// cancelled; Leave sends the voluntary departure during worker shutdown.
type Agent struct {
	// Coordinator is the fleet endpoint base URL (oracleherd -listen).
	Coordinator string
	// ID is the worker's advertised base URL — what the coordinator will
	// dispatch shards to.
	ID          string
	Fingerprint string
	Build       BuildInfo
	// Interval is the re-join (heartbeat) cadence (default 2s). The
	// coordinator's TTL should be several intervals so one dropped join is
	// harmless.
	Interval time.Duration
	// Report supplies each join's load signals; nil reports zeros.
	Report func() Heartbeat
	// Client is the HTTP client (default: 5s timeout).
	Client *http.Client
	// Logf, when set, receives agent progress lines.
	Logf func(format string, args ...any)
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

// Run joins the coordinator now and on every Interval tick until ctx is
// cancelled. A catalog-skew rejection (409) repeats identically forever
// and is returned as a hard error; any other failure — the coordinator may
// simply not be up yet — is logged and retried on the next tick.
func (a *Agent) Run(ctx context.Context) error {
	every := a.Interval
	if every <= 0 {
		every = 2 * time.Second
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		err := a.Join(ctx)
		var se *statusError
		switch {
		case err == nil:
		case errors.As(err, &se) && se.status == http.StatusConflict:
			return err
		case ctx.Err() != nil:
			return ctx.Err()
		default:
			a.logf("membership: join %s: %v (will retry)", a.Coordinator, err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
	}
}

// Join sends one join: it registers the worker, or refreshes a live
// member's registration.
func (a *Agent) Join(ctx context.Context) error {
	req := JoinRequest{ID: a.ID, Fingerprint: a.Fingerprint, Build: a.Build}
	if a.Report != nil {
		req.Heartbeat = a.Report()
	}
	return a.post(ctx, "/v1/fleet/join", req)
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
	return nil
}
