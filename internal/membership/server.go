package membership

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"oraclesize/internal/metrics"
)

// Server is the coordinator-side HTTP skin over a Fleet:
//
//	POST /v1/fleet/join       register a worker (409 on catalog skew)
//	POST /v1/fleet/heartbeat  refresh a member's TTL and load signals (404 unknown)
//	POST /v1/fleet/leave      voluntary departure
//	GET  /v1/fleet            member list plus the autoscaling advice
//
// Register it on a mux with Routes; oracleherd serves it from -listen next
// to the combined /metrics page.
type Server struct {
	Fleet Fleet
	// Advise, when set, supplies the autoscaling recommendation rendered
	// into GET /v1/fleet and the fleet metrics.
	Advise func() Advice
}

// maxFleetBody caps registration payloads; fleet messages are tiny.
const maxFleetBody = 1 << 16

// Routes registers the fleet endpoints on mux.
func (s *Server) Routes(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/fleet/join", s.handleJoin)
	mux.HandleFunc("POST /v1/fleet/heartbeat", s.handleHeartbeat)
	mux.HandleFunc("POST /v1/fleet/leave", s.handleLeave)
	mux.HandleFunc("GET /v1/fleet", s.handleFleet)
}

func (s *Server) decode(w http.ResponseWriter, r *http.Request, dst any) error {
	r.Body = http.MaxBytesReader(w, r.Body, maxFleetBody)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	return dec.Decode(dst)
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req JoinRequest
	if err := s.decode(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding join: %v", err)
		return
	}
	m, err := s.Fleet.Join(req)
	if err != nil {
		var fe *FingerprintError
		if errors.As(err, &fe) {
			// 409: the worker is healthy but belongs to a different build
			// universe; re-joining without a rebuild will keep conflicting.
			writeError(w, http.StatusConflict, "%v", err)
			return
		}
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, m)
}

// heartbeatRequest is the wire shape of one beat: the member ID plus the
// Heartbeat payload, flattened.
type heartbeatRequest struct {
	ID string `json:"id"`
	Heartbeat
}

func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req heartbeatRequest
	if err := s.decode(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding heartbeat: %v", err)
		return
	}
	m, err := s.Fleet.Beat(req.ID, req.Heartbeat)
	if err != nil {
		if errors.Is(err, ErrUnknownMember) {
			// 404 tells the agent to re-join: it was evicted (or the
			// coordinator restarted) while it was away.
			writeError(w, http.StatusNotFound, "%v: %s", err, req.ID)
			return
		}
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, m)
}

type leaveRequest struct {
	ID string `json:"id"`
}

func (s *Server) handleLeave(w http.ResponseWriter, r *http.Request) {
	var req leaveRequest
	if err := s.decode(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding leave: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"left": s.Fleet.Leave(req.ID)})
}

// fleetResponse is the GET /v1/fleet body.
type fleetResponse struct {
	Members []Member `json:"members"`
	Advice  *Advice  `json:"advice,omitempty"`
}

func (s *Server) handleFleet(w http.ResponseWriter, _ *http.Request) {
	resp := fleetResponse{Members: s.Fleet.Members()}
	if resp.Members == nil {
		resp.Members = []Member{}
	}
	if s.Advise != nil {
		a := s.Advise()
		resp.Advice = &a
	}
	writeJSON(w, http.StatusOK, resp)
}

// WriteMetrics renders the fleet gauges and counters in Prometheus text
// format — appended to oracleherd's combined /metrics page after the
// cluster metrics.
func (s *Server) WriteMetrics(w io.Writer) {
	members := s.Fleet.Members()
	joins, leaves, evictions := s.Fleet.Counters()
	draining := 0
	for _, m := range members {
		if m.Status == StatusDraining {
			draining++
		}
	}
	p := metrics.NewPage(w)
	p.Gauge("oracleherd_fleet_members", "Current live members of the elastic fleet.", int64(len(members)))
	p.Gauge("oracleherd_fleet_draining", "Members currently draining (no new leases).", int64(draining))
	p.Counter("oracleherd_fleet_joins_total", "Workers that registered since the coordinator started.", joins)
	p.Counter("oracleherd_fleet_leaves_total", "Voluntary departures since the coordinator started.", leaves)
	p.Counter("oracleherd_fleet_evictions_total", "Members evicted after going silent past the TTL.", evictions)
	if s.Advise != nil {
		a := s.Advise()
		p.Gauge("oracleherd_fleet_recommended_workers", "Fleet size the autoscaling advisor recommends for the target makespan.", int64(a.RecommendedWorkers))
		p.Gauge("oracleherd_fleet_backlog_units", "Runnable units not yet merged in the active run.", int64(a.BacklogUnits))
		p.GaugeFloat("oracleherd_fleet_unit_seconds", "Mean per-unit service time behind the recommendation.", a.UnitSeconds)
	}
}
