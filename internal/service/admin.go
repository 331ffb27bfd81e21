package service

import (
	"net/http"

	"oraclesize/internal/tenant"
)

// Admin endpoints: the live-reload control surface. Both require an
// authenticated tenant whose spec carries "admin": true — ordinary tenants
// get 403, missing keys the usual 401 — and both ride the standard
// instrument gate, so admin traffic is rate-limited, counted, and charged
// to its ledger like any other.

// requireAdmin gates an admin handler on the caller's admin grant.
func requireAdmin(ts *tenantState) error {
	if !ts.spec.Load().Admin {
		return errForbidden
	}
	return nil
}

// ---- POST /v1/admin/tenants/reload ----

type reloadResponse struct {
	// Generation is the policy version now serving.
	Generation uint64 `json:"generation"`
	// Tenants is the registered tenant count after the swap.
	Tenants int `json:"tenants"`
}

// handleTenantsReload folds in store mutations and swaps the tenant table,
// the HTTP twin of SIGHUP. In-flight requests are never dropped: the swap
// is one atomic pointer store and old-table requests run to completion.
func (s *Server) handleTenantsReload(_ http.ResponseWriter, _ *http.Request, ts *tenantState) (any, error) {
	if err := requireAdmin(ts); err != nil {
		return nil, err
	}
	gen, n, err := s.ReloadFromStore()
	if err != nil {
		return nil, &apiError{status: http.StatusConflict, msg: err.Error()}
	}
	return &reloadResponse{Generation: gen, Tenants: n}, nil
}

// ---- GET /v1/admin/tenants ----

type adminTenant struct {
	Name         string        `json:"name"`
	Weight       int           `json:"weight"`
	RatePerSec   float64       `json:"rate_per_sec,omitempty"`
	Burst        float64       `json:"burst,omitempty"`
	MaxBodyBytes int64         `json:"max_body_bytes,omitempty"`
	MaxUnits     int           `json:"max_campaign_units,omitempty"`
	MaxCampaigns int           `json:"max_campaigns,omitempty"`
	MaxSlots     int           `json:"max_queue_slots,omitempty"`
	Admin        bool          `json:"admin,omitempty"`
	Usage        tenant.Ledger `json:"usage"`
}

type adminTenantsResponse struct {
	Generation uint64        `json:"generation"`
	Tenants    []adminTenant `json:"tenants"`
}

// handleTenantsShow reports the live table — resolved limits and current
// ledger totals per tenant, including the reserved states — so operators
// can confirm a reload landed without reading the store off disk.
func (s *Server) handleTenantsShow(_ http.ResponseWriter, _ *http.Request, ts *tenantState) (any, error) {
	if err := requireAdmin(ts); err != nil {
		return nil, err
	}
	states := s.tenantStatesSorted()
	resp := &adminTenantsResponse{
		Generation: s.TenantGeneration(),
		Tenants:    make([]adminTenant, 0, len(states)),
	}
	for _, st := range states {
		sp := st.spec.Load()
		resp.Tenants = append(resp.Tenants, adminTenant{
			Name:         st.name,
			Weight:       sp.Weight,
			RatePerSec:   sp.RatePerSec,
			Burst:        sp.Burst,
			MaxBodyBytes: sp.MaxBodyBytes,
			MaxUnits:     sp.MaxCampaignUnits,
			MaxCampaigns: sp.MaxCampaigns,
			MaxSlots:     sp.MaxQueueSlots,
			Admin:        sp.Admin,
			Usage:        st.ledger.totals(),
		})
	}
	return resp, nil
}
