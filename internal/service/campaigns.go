package service

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"oraclesize/internal/campaign"
)

// campaignManager owns async campaign executions. Campaigns do not pass
// through the simulation work queue — internal/campaign brings its own
// bounded pool — but submissions are still capped (MaxCampaigns at once,
// MaxCampaignUnits per spec) so a campaign can't take the process down.
type campaignManager struct {
	s *Server

	mu       sync.Mutex
	runs     map[string]*campaignRun
	finished []string // finished run IDs in completion order, for eviction
	seq      int

	active atomic.Int64
	wg     sync.WaitGroup
}

// campaignRun tracks one submitted campaign through its lifecycle.
type campaignRun struct {
	id       string
	owner    *tenantState
	spec     *campaign.Spec
	artifact string
	units    int

	done atomic.Int64 // units handled so far (Progress callback)

	mu       sync.Mutex
	state    string // "running", "done", "failed"
	stats    campaign.Stats
	errMsg   string
	finished time.Time
}

func newCampaignManager(s *Server) *campaignManager {
	return &campaignManager{s: s, runs: make(map[string]*campaignRun)}
}

func (cm *campaignManager) running() int64 { return cm.active.Load() }

// wait blocks until all submitted campaigns finish, up to timeout.
func (cm *campaignManager) wait(timeout time.Duration) bool {
	doneCh := make(chan struct{})
	go func() {
		cm.wg.Wait()
		close(doneCh)
	}()
	select {
	case <-doneCh:
		return true
	case <-time.After(timeout):
		return false
	}
}

func (cm *campaignManager) artifactDir() (string, error) {
	dir := cm.s.cfg.ArtifactDir
	if dir == "" {
		dir = filepath.Join(os.TempDir(), "oracled-campaigns")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("creating artifact dir: %w", err)
	}
	return dir, nil
}

// ---- POST /v1/campaign ----

type campaignSubmitResponse struct {
	ID       string `json:"id"`
	Units    int    `json:"units"`
	Artifact string `json:"artifact"`
	SpecHash string `json:"spec_hash"`
	Status   string `json:"status"`
}

func (s *Server) handleCampaignSubmit(w http.ResponseWriter, r *http.Request, ts *tenantState) (any, error) {
	var spec campaign.Spec
	if err := s.decodeBody(w, r, &spec, ts); err != nil {
		return nil, err
	}
	if err := spec.Validate(); err != nil {
		return nil, badRequest("%v", err)
	}
	// Count arithmetically before compiling: Units() materializes the full
	// cross product, so an over-cap spec must be rejected without it — a
	// small body requesting billions of trials would otherwise allocate
	// billions of Unit structs before the cap check. The cap is the server
	// limit tightened by the tenant's own unit quota.
	units := spec.UnitCount()
	if limit := s.unitLimit(ts); units > int64(limit) {
		return nil, badRequest("campaign compiles to %d units, cap is %d", units, limit)
	}
	return s.campaigns.submit(ts, &spec, int(units))
}

// submit registers the campaign and starts it, enforcing the concurrent
// campaign caps: the tenant's own cap throttles (429) while the global cap
// sheds (503). The returned response carries the poll ID.
func (cm *campaignManager) submit(ts *tenantState, spec *campaign.Spec, units int) (any, error) {
	dir, err := cm.artifactDir()
	if err != nil {
		return nil, err
	}

	cm.mu.Lock()
	if max := ts.spec.Load().MaxCampaigns; max > 0 && ts.campaigns.Load() >= int64(max) {
		cm.mu.Unlock()
		return nil, &throttleError{
			retryAfter: cm.s.cfg.RetryAfter,
			msg:        fmt.Sprintf("tenant campaign cap reached (%d running)", max),
		}
	}
	if cm.active.Load() >= int64(cm.s.cfg.MaxCampaigns) {
		cm.mu.Unlock()
		return nil, fmt.Errorf("%w: %d campaigns already running", errBusy, cm.s.cfg.MaxCampaigns)
	}
	cm.seq++
	id := fmt.Sprintf("c%04d-%s", cm.seq, spec.Hash()[:8])
	run := &campaignRun{
		id:       id,
		owner:    ts,
		spec:     spec,
		artifact: filepath.Join(dir, id+".jsonl"),
		units:    units,
		state:    "running",
	}
	cm.runs[id] = run
	cm.active.Add(1)
	ts.campaigns.Add(1)
	cm.wg.Add(1)
	cm.mu.Unlock()

	go cm.execute(run)

	return &campaignSubmitResponse{
		ID:       id,
		Units:    units,
		Artifact: run.artifact,
		SpecHash: spec.Hash(),
		Status:   "running",
	}, nil
}

// execute runs one campaign to completion on the campaign pool, streaming
// records to the JSONL artifact and sharing the server's instance cache.
func (cm *campaignManager) execute(run *campaignRun) {
	defer cm.wg.Done()
	defer cm.active.Add(-1)
	defer run.owner.campaigns.Add(-1)

	stats, err := cm.runToArtifact(run)
	run.owner.ledger.units.Add(int64(stats.Executed))

	run.mu.Lock()
	run.stats = stats
	run.finished = time.Now()
	if err != nil {
		run.state = "failed"
		run.errMsg = err.Error()
	} else {
		run.state = "done"
	}
	run.mu.Unlock()

	// Retain only the last CampaignHistory finished runs: a long-running
	// daemon accepting periodic submissions must not grow the status map
	// without bound. Evicted IDs poll as 404; the JSONL artifact stays on
	// disk either way.
	cm.mu.Lock()
	cm.finished = append(cm.finished, run.id)
	for len(cm.finished) > cm.s.cfg.CampaignHistory {
		delete(cm.runs, cm.finished[0])
		cm.finished = cm.finished[1:]
	}
	cm.mu.Unlock()
}

func (cm *campaignManager) runToArtifact(run *campaignRun) (campaign.Stats, error) {
	f, err := os.Create(run.artifact)
	if err != nil {
		return campaign.Stats{}, fmt.Errorf("creating artifact: %w", err)
	}
	stats, runErr := campaign.Run(run.spec, campaign.NewSink(f), campaign.RunOptions{
		Cache: cm.s.cache,
		Progress: func(done, total int) {
			run.done.Store(int64(done))
		},
	})
	if closeErr := f.Close(); runErr == nil && closeErr != nil {
		runErr = fmt.Errorf("closing artifact: %w", closeErr)
	}
	return stats, runErr
}

// ---- GET /v1/campaign/{id} ----

type campaignStatusResponse struct {
	ID          string `json:"id"`
	Status      string `json:"status"`
	Units       int    `json:"units"`
	UnitsDone   int64  `json:"units_done"`
	Artifact    string `json:"artifact"`
	SpecHash    string `json:"spec_hash"`
	Error       string `json:"error,omitempty"`
	Executed    int    `json:"executed,omitempty"`
	Skipped     int    `json:"skipped,omitempty"`
	Records     int    `json:"records,omitempty"`
	CacheHits   int64  `json:"cache_hits,omitempty"`
	CacheMisses int64  `json:"cache_misses,omitempty"`
}

func (s *Server) handleCampaignGet(_ http.ResponseWriter, r *http.Request, _ *tenantState) (any, error) {
	id := r.PathValue("id")
	cm := s.campaigns
	cm.mu.Lock()
	run := cm.runs[id]
	cm.mu.Unlock()
	if run == nil {
		return nil, &apiError{status: http.StatusNotFound, msg: fmt.Sprintf("no campaign %q", id)}
	}

	run.mu.Lock()
	defer run.mu.Unlock()
	resp := &campaignStatusResponse{
		ID:        run.id,
		Status:    run.state,
		Units:     run.units,
		UnitsDone: run.done.Load(),
		Artifact:  run.artifact,
		SpecHash:  run.spec.Hash(),
		Error:     run.errMsg,
	}
	if run.state != "running" {
		resp.Executed = run.stats.Executed
		resp.Skipped = run.stats.Skipped
		resp.Records = run.stats.Records
		resp.CacheHits = run.stats.CacheHits
		resp.CacheMisses = run.stats.CacheMisses
	}
	return resp, nil
}
