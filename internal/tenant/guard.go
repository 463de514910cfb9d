// Guard is the single object the daemon consults at its HTTP seam:
// authenticate a request, meter it, and account for the jobs a tenant
// has queued and running. It owns the per-tenant quota counters
// /metrics renders.
package tenant

import (
	"errors"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/clock"
)

// Config sizes the guard. The zero value enforces nothing (anonymous
// mode, unlimited rates, no caps) — a daemon with this config is
// indistinguishable from one that predates tenancy.
type Config struct {
	// Keys is the API keyring; nil or empty means anonymous mode: every
	// request authenticates as the shared Anonymous tenant and no 401 is
	// ever returned.
	Keys Keyring
	// SubmitRate / SubmitBurst shape the per-tenant token bucket on job
	// submission (tokens per second / bucket capacity). Zero rate means
	// unlimited.
	SubmitRate  float64
	SubmitBurst int
	// MaxInFlight caps how many of one tenant's jobs run concurrently;
	// enforcement happens at dequeue, so over-cap jobs wait in the queue
	// rather than being rejected. Zero means uncapped.
	MaxInFlight int
	// MaxQueued caps one tenant's backlog; past it submissions are
	// rejected with quota_exceeded. Zero means uncapped.
	MaxQueued int
	// Clock feeds the rate limiters (default: system).
	Clock clock.Wall
}

// ErrBadKey rejects a request whose key is missing or unknown.
var ErrBadKey = errors.New("tenant: missing or unknown API key")

// Stats is one tenant's quota counter snapshot, rendered under
// /metrics.
type Stats struct {
	Name string
	Role Role
	// Requests counts authenticated /api/v1 requests; Throttled counts
	// rate-limit refusals (429 rate_limited); Rejected counts backlog-
	// quota refusals (429 quota_exceeded); Deferrals counts dequeue
	// passes skipped because the tenant sat at its in-flight cap.
	Requests  uint64
	Throttled uint64
	Rejected  uint64
	Deferrals uint64
	// InFlight is the live gauge of running jobs.
	InFlight int
}

// Guard authenticates, meters, and accounts. Construct with NewGuard.
type Guard struct {
	keys        Keyring
	submit      *Limiter
	maxInFlight int
	maxQueued   int

	mu           sync.Mutex
	tenants      map[string]*Stats
	authFailures uint64
}

// NewGuard builds a guard from cfg.
func NewGuard(cfg Config) *Guard {
	wall := cfg.Clock
	if wall == nil {
		wall = clock.System()
	}
	if cfg.SubmitBurst <= 0 {
		cfg.SubmitBurst = 8
	}
	return &Guard{
		keys:        cfg.Keys,
		submit:      NewLimiter(cfg.SubmitRate, cfg.SubmitBurst, wall),
		maxInFlight: cfg.MaxInFlight,
		maxQueued:   cfg.MaxQueued,
		tenants:     map[string]*Stats{},
	}
}

// Enforced reports whether a keyring is configured — whether
// unauthenticated requests get 401 instead of the anonymous identity.
func (g *Guard) Enforced() bool { return len(g.keys) > 0 }

// APIKey extracts the presented credential: `Authorization: Bearer
// <key>` (canonical) or the `X-API-Key` header (curl-friendly).
func APIKey(r *http.Request) string {
	if h := r.Header.Get("Authorization"); h != "" {
		if key, ok := strings.CutPrefix(h, "Bearer "); ok {
			return strings.TrimSpace(key)
		}
	}
	return r.Header.Get("X-API-Key")
}

// with runs f on t's counter block under the guard lock, creating the
// block on first sight.
func (g *Guard) with(t Tenant, f func(st *Stats)) {
	g.mu.Lock()
	defer g.mu.Unlock()
	st := g.tenants[t.Name]
	if st == nil {
		st = &Stats{Name: t.Name, Role: t.Role}
		g.tenants[t.Name] = st
	}
	f(st)
}

// Authenticate resolves a request to its tenant. In anonymous mode
// every request — keyed or not — is the Anonymous tenant; in enforced
// mode a missing or unknown key is ErrBadKey. The returned tenant's
// request counter has already ticked.
func (g *Guard) Authenticate(r *http.Request) (Tenant, error) {
	t := Anonymous
	if g.Enforced() {
		var ok bool
		if t, ok = g.keys.Lookup(APIKey(r)); !ok {
			g.mu.Lock()
			g.authFailures++
			g.mu.Unlock()
			return Tenant{}, ErrBadKey
		}
	}
	g.with(t, func(st *Stats) { st.Requests++ })
	return t, nil
}

// AllowSubmit spends one submission token. Admins are exempt.
func (g *Guard) AllowSubmit(t Tenant) (time.Duration, bool) {
	if t.Role == RoleAdmin {
		return 0, true
	}
	ra, ok := g.submit.Allow(t.Name)
	if !ok {
		g.with(t, func(st *Stats) { st.Throttled++ })
	}
	return ra, ok
}

// MaxQueued is the per-tenant backlog cap for t (0 = uncapped); admins
// are uncapped.
func (g *Guard) MaxQueued(t Tenant) int {
	if t.Role == RoleAdmin {
		return 0
	}
	return g.maxQueued
}

// CountRejected records a backlog-quota refusal.
func (g *Guard) CountRejected(t Tenant) {
	g.with(t, func(st *Stats) { st.Rejected++ })
}

// AcquireJob claims an in-flight slot for t at dequeue time. False
// means the tenant sits at its cap and the job must stay queued; the
// deferral is counted. Admins always acquire.
func (g *Guard) AcquireJob(t Tenant) bool {
	acquired := false
	g.with(t, func(st *Stats) {
		if g.maxInFlight > 0 && t.Role != RoleAdmin && st.InFlight >= g.maxInFlight {
			st.Deferrals++
			return
		}
		st.InFlight++
		acquired = true
	})
	return acquired
}

// ReleaseJob returns t's in-flight slot when its job resolves.
func (g *Guard) ReleaseJob(t Tenant) {
	g.with(t, func(st *Stats) {
		if st.InFlight > 0 {
			st.InFlight--
		}
	})
}

// AuthFailures counts requests refused for a missing or unknown key.
func (g *Guard) AuthFailures() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.authFailures
}

// Snapshot lists every tenant's counters, name-ordered for stable
// /metrics rendering.
func (g *Guard) Snapshot() []Stats {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]Stats, 0, len(g.tenants))
	for _, st := range g.tenants {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
