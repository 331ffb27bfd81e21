// Package tenant is the multi-tenant hardening layer for oracled and
// oracleherd: identity, admission quotas, and scheduling fairness.
//
// Identity is API-key based. A Registry is built from a Store's tenant
// specs — a durable store, or a memory store loaded from a JSON keyfile —
// mapping secret keys to named tenants; authentication hashes the
// presented key with SHA-256 and compares the digest against every
// registered tenant with a constant-time comparison, so neither the
// lookup nor the match leaks key bytes through timing. The raw keys are
// never retained — only their digests.
//
// Quotas are enforced at admission. Each tenant carries a token-bucket
// rate limit (RatePerSec/Burst) plus resource caps: request body bytes,
// compiled spec units per /v1/shard request, and work-queue slots.
// Quota rejections are distinct from capacity rejections — a tenant over
// its own limits is throttled (HTTP 429 + Retry-After) while a full
// server still sheds (503) — so clients can tell "slow down" from "the
// service is saturated".
//
// Fairness is a weighted deficit-round-robin Scheduler over per-tenant
// queues: each tenant drains in proportion to its configured weight, so
// one tenant's bulk backlog cannot starve another's interactive traffic.
// When a single tenant is active the scheduler degrades to the plain
// batched FIFO drain the serve-path fast lane relies on.
//
// The package also carries the fleet's transport identity: mTLS config
// builders and a small certificate generator (see tlsutil.go) used by
// oracled, oracleherd and cmd/oraclecert.
package tenant

import (
	"bytes"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// MaxTenants bounds a keyfile: per-tenant state (queues, metrics series)
// is sized by the registry, so the registry itself must be bounded.
const MaxTenants = 256

// minKeyLength rejects trivially guessable keys at load time.
const minKeyLength = 8

// Spec is one tenant's keyfile entry. The zero value of every limit means
// "no limit of this kind"; Weight 0 means the default weight 1.
type Spec struct {
	// Name identifies the tenant in logs, metrics labels and scheduling.
	// It must match [A-Za-z0-9_-]+ so it is always a safe Prometheus
	// label value, and must not collide with the reserved names
	// "anonymous" and "unknown".
	Name string `json:"name"`
	// Key is the shared secret presented as `Authorization: Bearer <key>`
	// or `X-API-Key: <key>`. At least 8 bytes. The Registry retains only
	// its SHA-256 digest.
	Key string `json:"key"`
	// Weight is the tenant's deficit-round-robin share (default 1): a
	// weight-4 tenant drains four queued requests for every one of a
	// weight-1 tenant while both have backlog.
	Weight int `json:"weight,omitempty"`
	// RatePerSec and Burst configure the admission token bucket; 0 rate
	// disables rate limiting for the tenant.
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	Burst      float64 `json:"burst,omitempty"`
	// MaxBodyBytes caps one request body, tightening the server-wide cap.
	MaxBodyBytes int64 `json:"max_body_bytes,omitempty"`
	// MaxCampaignUnits caps the compiled unit count of a spec sent to
	// /v1/shard, tightening the server-wide cap.
	MaxCampaignUnits int `json:"max_campaign_units,omitempty"`
	// MaxQueueSlots caps the tenant's admitted-but-not-executing work
	// queue entries; beyond it the tenant is throttled (429) while other
	// tenants' slots and the global queue stay available.
	MaxQueueSlots int `json:"max_queue_slots,omitempty"`
	// Admin grants access to the daemon's admin endpoints (tenant reload,
	// tenant report). Ordinary tenants get 403 there.
	Admin bool `json:"admin,omitempty"`
	// Labels are free-form annotations reported on GET /healthz-adjacent
	// surfaces and available to operators; they never become metric
	// labels (cardinality stays bounded by tenant count alone).
	Labels map[string]string `json:"labels,omitempty"`
}

// Tenant is one authenticated identity with its quota spec. Tenants are
// immutable after registry construction.
//
// During a key rotation a tenant may hold a second, previous digest that
// stays valid until prevExpiry — the overlap window that lets every client
// of the tenant switch keys without a hard cut-over.
type Tenant struct {
	Spec
	keyDigest  [sha256.Size]byte
	prevDigest [sha256.Size]byte
	prevValid  bool
	prevExpiry time.Time
}

// keyfile is the on-disk document shape.
type keyfile struct {
	Tenants []Spec `json:"tenants"`
}

// Registry holds the tenant set and answers authentication queries.
type Registry struct {
	tenants []*Tenant
}

// reserved names collide with the built-in metric labels for
// unauthenticated and registry-less traffic.
var reserved = map[string]bool{"anonymous": true, "unknown": true}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// normalizeSpec validates one spec's name and limits and applies the
// weight/burst defaults. It is shared by the keyfile and store registry
// constructors, so both load paths enforce identical rules.
func normalizeSpec(sp Spec) (Spec, error) {
	if !validName(sp.Name) {
		return sp, fmt.Errorf("tenant: name %q is not [A-Za-z0-9_-]+", sp.Name)
	}
	if reserved[sp.Name] {
		return sp, fmt.Errorf("tenant: name %q is reserved", sp.Name)
	}
	if sp.Weight < 0 || sp.RatePerSec < 0 || sp.Burst < 0 || sp.MaxBodyBytes < 0 ||
		sp.MaxCampaignUnits < 0 || sp.MaxQueueSlots < 0 {
		return sp, fmt.Errorf("tenant %q: negative limit", sp.Name)
	}
	if sp.Weight == 0 {
		sp.Weight = 1
	}
	if sp.RatePerSec > 0 && sp.Burst <= 0 {
		// A rate with no burst would reject every request after the
		// first in any instant; default the bucket to one second of
		// rate, matching the common token-bucket convention.
		sp.Burst = sp.RatePerSec
	}
	return sp, nil
}

// NewRegistry builds a registry from tenant specs carrying raw keys: each
// key is length-checked and digested, then NewStoredRegistry applies the
// rules both load paths share. Raw keys are never retained.
func NewRegistry(specs []Spec) (*Registry, error) {
	stored := make([]StoredSpec, len(specs))
	for i, sp := range specs {
		var err error
		if stored[i], err = digestSpec(sp); err != nil {
			return nil, err
		}
	}
	return NewStoredRegistry(stored)
}

// readKeyfile reads a JSON keyfile:
//
//	{"tenants": [{"name": "research", "key": "...", "weight": 4,
//	              "rate_per_sec": 100, "burst": 200, ...}]}
//
// Unknown fields are rejected so a typoed limit cannot silently grant
// "unlimited".
func readKeyfile(path string) ([]Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("tenant: reading keyfile: %w", err)
	}
	var kf keyfile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&kf); err != nil {
		return nil, fmt.Errorf("tenant: parsing keyfile %s: %w", path, err)
	}
	return kf.Tenants, nil
}

// Authenticate resolves an API key to its tenant. The comparison is
// constant-time in the key material: the presented key is hashed once and
// the digest is compared against every registered tenant's digest with
// crypto/subtle, with no early exit, so response timing reveals neither
// how close a guess came nor which tenant matched. A tenant mid-rotation
// matches on either its current or its previous digest while the overlap
// window is open at now; the window check depends only on the clock,
// never on key material, so it does not perturb the timing contract.
func (r *Registry) Authenticate(key string, now time.Time) (*Tenant, bool) {
	d := sha256.Sum256([]byte(key))
	idx := -1
	for i := range r.tenants {
		t := r.tenants[i]
		// Accumulate the match index without branching out of the loop.
		m := subtle.ConstantTimeCompare(d[:], t.keyDigest[:])
		if t.prevValid && now.Before(t.prevExpiry) {
			m |= subtle.ConstantTimeCompare(d[:], t.prevDigest[:])
		}
		idx = subtle.ConstantTimeSelect(m, i, idx)
	}
	if idx < 0 {
		return nil, false
	}
	return r.tenants[idx], true
}

// Tenants returns the registered tenants in construction order (a
// store's registry lists them by name). The slice is shared; callers
// must not mutate it.
func (r *Registry) Tenants() []*Tenant { return r.tenants }
