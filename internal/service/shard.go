package service

import (
	"net/http"
	"time"

	"oraclesize/internal/campaign"
)

// ---- POST /v1/shard ----
//
// The shard endpoint is the batch execution path a cluster coordinator
// drives: one request decodes a contiguous range of a campaign spec's
// units, executes them synchronously and returns every record, grouped
// per unit, so the coordinator pays HTTP overhead per shard rather than
// per unit.
// A shard occupies exactly one slot of the bounded work queue — the same
// backpressure (503 + Retry-After) and deadline (504) rules as /v1/run
// apply. The spec passes admitSpec (sizes, the tenant's unit limit), and
// the per-request unit count is capped by MaxShardUnits so a worker slot
// is held for a bounded batch.

type shardRequest struct {
	Spec campaign.Spec `json:"spec"`
	// Start and End select the unit-index range [Start, End) of the spec's
	// compiled unit list.
	Start int `json:"start"`
	End   int `json:"end"`
}

type shardResponse struct {
	SpecHash string `json:"spec_hash"`
	Start    int    `json:"start"`
	End      int    `json:"end"`
	// Units holds one record batch per unit, in unit-index order: task
	// units yield one record, experiment units one per table row.
	Units  [][]campaign.Record `json:"units"`
	WallNS int64               `json:"wall_ns"`
}

// admitSpec is /v1/shard's spec admission: it validates the spec,
// requires every size within MaxNodes, and returns the unit count once it
// is within the tenant's unit limit. The count is arithmetic, so a small
// body requesting billions of trials is rejected without decoding a unit.
func (s *Server) admitSpec(spec *campaign.Spec, ts *tenantState) (int64, error) {
	if err := spec.Validate(); err != nil {
		return 0, badRequest("%v", err)
	}
	for _, n := range spec.Sizes {
		if n > s.cfg.MaxNodes {
			return 0, badRequest("spec size n=%d exceeds cap %d", n, s.cfg.MaxNodes)
		}
	}
	units := spec.UnitCount()
	if limit := s.unitLimit(ts); units > int64(limit) {
		return 0, badRequest("spec compiles to %d units, cap is %d", units, limit)
	}
	return units, nil
}

func (s *Server) handleShard(w http.ResponseWriter, r *http.Request, ts *tenantState) (any, error) {
	scr := scratchPool.Get().(*reqScratch)
	defer scratchPool.Put(scr)
	if err := s.readBody(w, r, scr, ts); err != nil {
		return nil, err
	}
	var req shardRequest
	if err := scr.decode(&req); err != nil {
		return nil, err
	}
	spec := &req.Spec
	total, err := s.admitSpec(spec, ts)
	if err != nil {
		return nil, err
	}
	if req.Start < 0 || req.End <= req.Start || int64(req.End) > total {
		return nil, badRequest("shard [%d,%d) out of range for %d units", req.Start, req.End, total)
	}
	if req.End-req.Start > s.cfg.MaxShardUnits {
		return nil, badRequest("shard holds %d units, cap is %d", req.End-req.Start, s.cfg.MaxShardUnits)
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	sh := campaign.Shard{Start: req.Start, End: req.End}
	return s.execute(ctx, ts, func() (any, error) {
		start := time.Now()
		batches, err := campaign.RunShard(spec, sh, s.cache)
		if err != nil {
			return nil, badRequest("%v", err)
		}
		s.metrics.shardUnits.Add(int64(sh.Len()))
		ts.ledger.units.Add(int64(sh.Len()))
		s.observeUnitSeconds(time.Since(start).Seconds() / float64(sh.Len()))
		return &shardResponse{
			SpecHash: spec.Hash(),
			Start:    req.Start,
			End:      req.End,
			Units:    batches,
			WallNS:   time.Since(start).Nanoseconds(),
		}, nil
	})
}
