// Package membership lets oracled workers join and leave a running
// oracleherd campaign instead of being pinned in a static -workers list.
//
// A worker self-registers against the coordinator's fleet endpoint
// (POST /v1/fleet/join) carrying its advertised URL, catalog fingerprint
// and build info, then sends periodic heartbeats (POST /v1/fleet/heartbeat)
// with its live load signals: queue depth and the EWMA per-unit service
// time its shard endpoint observes. Server serves these endpoints over a
// Fleet, which is the coordinator itself (cluster.Coordinator): its fleet
// is the one member table, so the row GET /v1/fleet lists and the gate
// that decides who gets leases are the same state. A member whose
// heartbeats stop is probed once over /healthz and, unless it answers,
// evicted with its leases requeued at once; a draining member keeps its
// leases but is handed no new ones.
//
// On top of the same signals rides the autoscaling advisor: Recommend maps
// (unit backlog, mean unit service time, target makespan) to a fleet size,
// exposed via GET /v1/fleet and the oracleherd_fleet_recommended_workers
// gauge for an external provisioner to act on.
//
// The package holds the wire types, the HTTP skin (Server) and the
// worker-side Agent; it imports no coordinator code.
package membership

import (
	"errors"
	"fmt"
	"time"
)

// Status is a member's lease eligibility.
type Status string

const (
	// StatusActive members accept new leases.
	StatusActive Status = "active"
	// StatusDraining members keep the leases they hold but get no new
	// ones; a draining worker that goes silent past its grace is evicted
	// like any other.
	StatusDraining Status = "draining"
)

// BuildInfo identifies a worker binary. oracled reports it in its /healthz
// payload and its join request, and the coordinator logs it per worker:
// "which build served this shard" is the first question asked when a
// distributed run stops reproducing.
type BuildInfo struct {
	// GoVersion is the toolchain that built the binary.
	GoVersion string `json:"go_version"`
	// ModuleVersion is the main module's version ("(devel)" for builds
	// outside a released module).
	ModuleVersion string `json:"module_version"`
	// Revision is the VCS commit the binary was built from, when stamped.
	Revision string `json:"vcs_revision,omitempty"`
	// Dirty marks builds from a modified working tree.
	Dirty bool `json:"vcs_dirty,omitempty"`
}

// Member is one row of the live fleet table: a worker that joined through
// the fleet endpoint.
type Member struct {
	// ID is the worker's advertised base URL — the same string the cluster
	// package dispatches shards to.
	ID string `json:"id"`
	// Fingerprint is the worker's catalog fingerprint, validated against
	// the coordinator's at join time.
	Fingerprint string    `json:"catalog_fingerprint"`
	Build       BuildInfo `json:"build"`
	// QueueDepth and UnitSeconds are the latest heartbeat's load signals:
	// the worker's bounded-queue depth and its EWMA per-unit service time.
	QueueDepth  int       `json:"queue_depth"`
	UnitSeconds float64   `json:"unit_seconds"`
	Status      Status    `json:"status"`
	JoinedAt    time.Time `json:"joined_at"`
	LastSeen    time.Time `json:"last_seen"`
	Heartbeats  int64     `json:"heartbeats"`
}

// Heartbeat is the per-beat payload a member reports.
type Heartbeat struct {
	QueueDepth  int     `json:"queue_depth"`
	UnitSeconds float64 `json:"unit_seconds"`
	// Draining marks a member shutting down gracefully: it is kept in the
	// fleet with StatusDraining instead of being handed new leases.
	Draining bool `json:"draining,omitempty"`
}

// ErrUnknownMember rejects a heartbeat from a worker that is not a live
// member — typically one that was evicted while partitioned. The agent
// answers it by re-joining.
var ErrUnknownMember = errors.New("membership: unknown member")

// FingerprintError rejects a join whose catalog fingerprint disagrees with
// the coordinator's; version skew breaks the byte-identical-merge
// contract.
type FingerprintError struct {
	ID   string
	Got  string
	Want string
}

func (e *FingerprintError) Error() string {
	return fmt.Sprintf("membership: %s catalog fingerprint %s != coordinator %s (version skew breaks the determinism contract; AllowSkew overrides)",
		e.ID, e.Got, e.Want)
}

// JoinRequest is the registration payload: the worker's identity plus its
// first heartbeat.
type JoinRequest struct {
	ID          string    `json:"id"`
	Fingerprint string    `json:"catalog_fingerprint"`
	Build       BuildInfo `json:"build"`
	Heartbeat
}

// Fleet is the member table Server serves. cluster.Coordinator implements
// it; it is declared here because this package cannot import cluster,
// which imports these wire types.
type Fleet interface {
	// Join registers a worker, or refreshes a live member in place. A
	// catalog fingerprint other than the coordinator's fails with a
	// *FingerprintError.
	Join(req JoinRequest) (Member, error)
	// Beat records one heartbeat; a worker that is not a live member
	// fails with ErrUnknownMember.
	Beat(id string, hb Heartbeat) (Member, error)
	// Leave removes a member that announced its departure and reports
	// whether it was one.
	Leave(id string) bool
	// Members lists the live members, sorted by ID.
	Members() []Member
	// Counters reports the monotonic join, leave and eviction totals.
	Counters() (joins, leaves, evictions int64)
}
