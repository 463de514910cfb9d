// Remote is the network-backed CellStore: a thin client over a hub
// ptestd's cells endpoints, so `ptest suite -store-url` and `ptest run
// -store-url` clients share the hub's content-addressed cache — a cell
// any of them, or any hub job, computed is not computed again. Reads
// are GET /api/v1/cells/{key}; every write is a POST
// /api/v1/cells:batch, one cell being a batch of one. A small
// in-process LRU front keeps repeat lookups off the wire, and
// single-flight deduplication collapses concurrent fetches of the same
// key into one HTTP round trip.
//
// Failure semantics follow the CellStore contract: an unreachable or
// erroring remote degrades to a miss on Get (the caller recomputes,
// which is always correct) and to a returned-but-ignorable error on Put.
// A client never wedges on its cache. Three layers keep that degradation
// cheap: failures internal/api classes as transient (no answer, 429,
// 5xx) retry a bounded number of times with jittered exponential
// backoff; a circuit breaker trips after enough consecutive failures so
// a dead cache host costs nothing per lookup instead of a timeout each;
// and after a cooldown a single half-open probe decides whether to
// close the circuit again.
package store

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/clock"
	"repro/internal/report"
)

// cellsPathPrefix is the shared-cache read API the server side mounts;
// the client and ptestd agree on this shape (pinned by tests on both
// sides).
const cellsPathPrefix = "/api/v1/cells/"

// cellsBatchPath is the write endpoint: one POST carries one or many
// cells and the serving store group-commits them under a single fsync.
const cellsBatchPath = "/api/v1/cells:batch"

// RemoteConfig configures a Remote store client.
type RemoteConfig struct {
	// BaseURL is the serving ptestd, e.g. "http://cache-host:8321".
	BaseURL string
	// MemEntries caps the in-process LRU front (default 4096 cells).
	MemEntries int
	// HTTPClient overrides the default client (30 s timeout). Tests and
	// callers with custom transports use it.
	HTTPClient *http.Client
	// APIKey authenticates against a hub running with -auth-keys; sent
	// as `Authorization: Bearer <key>`. Empty means anonymous.
	APIKey string
	// Retries is how many extra wire attempts follow a transient failure
	// (default 2; negative disables retries). Authoritative answers,
	// such as a 404 miss, never retry.
	Retries int
	// RetryBase seeds the jittered exponential backoff between attempts
	// (default 50ms, doubling, ±25% jitter).
	RetryBase time.Duration
	// BreakerThreshold trips the circuit after this many consecutive
	// wire failures (default 5): while open, Gets miss and Puts error
	// instantly instead of each paying a timeout.
	BreakerThreshold int
	// BreakerCooldown is how long the open circuit fails fast before
	// letting one half-open probe through (default 5s).
	BreakerCooldown time.Duration
	// BatchSize enables the write-through batcher: Puts queue locally
	// (the LRU front already serves them) and flush as one
	// POST /api/v1/cells:batch when this many entries are pending, when
	// BatchDelay elapses, and on Flush/Close — collapsing N round trips
	// plus N server-side fsyncs into ~N/BatchSize. 0 (the default)
	// sends every Put as a synchronous batch of one.
	BatchSize int
	// BatchDelay bounds how long a queued entry waits for company
	// before a time-triggered flush (default 50ms when BatchSize > 0).
	BatchDelay time.Duration
	// Clock abstracts backoff waits and cooldown time for tests
	// (default: system).
	Clock clock.Wall
}

// Remote implements CellStore over a ptestd's cells API.
type Remote struct {
	conn      api.Conn
	retries   int
	retryBase time.Duration
	wall      clock.Wall
	brk       breaker

	hits, misses, puts atomic.Uint64

	rndMu sync.Mutex
	rnd   *rand.Rand

	mu      sync.Mutex
	front   *lruCache
	flights map[string]*flight // key → in-progress fetch
	closed  bool

	batchSize  int
	batchDelay time.Duration
	bmu        sync.Mutex
	pending    []wireCell // queued write-through entries
	timerArmed bool       // a delay-flush goroutine is waiting
}

// wireCell is one entry of the cells:batch body. The cell rides as the
// raw JSON the Put already marshaled — encoded once, sent once.
type wireCell struct {
	Key  string          `json:"key"`
	Cell json.RawMessage `json:"cell"`
}

// flight is one in-progress remote fetch; latecomers for the same key
// wait on done instead of issuing their own request.
type flight struct {
	done chan struct{}
	cell report.Cell
	ok   bool
}

// OpenRemote builds a client for a ptestd base URL, refusing anything
// but one http(s) hub (api.BaseURL). It does not probe the server — a
// client may start before its hub, and every operation degrades to a
// miss until the remote answers.
func OpenRemote(cfg RemoteConfig) (*Remote, error) {
	base, err := api.BaseURL(cfg.BaseURL)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if cfg.MemEntries <= 0 {
		cfg.MemEntries = 4096
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = &http.Client{Timeout: 30 * time.Second}
	}
	switch {
	case cfg.Retries == 0:
		cfg.Retries = 2
	case cfg.Retries < 0:
		cfg.Retries = 0
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 50 * time.Millisecond
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = 5
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 5 * time.Second
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.System()
	}
	if cfg.BatchSize < 0 {
		cfg.BatchSize = 0
	}
	if cfg.BatchDelay <= 0 {
		cfg.BatchDelay = 50 * time.Millisecond
	}
	return &Remote{
		conn:      api.Conn{Base: base, HC: hc, Key: cfg.APIKey},
		retries:   cfg.Retries,
		retryBase: cfg.RetryBase,
		wall:      cfg.Clock,
		brk: breaker{
			threshold: cfg.BreakerThreshold,
			cooldown:  cfg.BreakerCooldown,
			wall:      cfg.Clock,
		},
		rnd:        rand.New(rand.NewSource(1)),
		front:      newLRU(cfg.MemEntries),
		flights:    map[string]*flight{},
		batchSize:  cfg.BatchSize,
		batchDelay: cfg.BatchDelay,
	}, nil
}

// Get returns the cell for key from the LRU front or the remote. All
// concurrent Gets for one key share a single HTTP request.
func (r *Remote) Get(key string) (report.Cell, bool) {
	r.mu.Lock()
	if cell, ok := r.front.Get(key); ok {
		r.mu.Unlock()
		r.hits.Add(1)
		return cell, true
	}
	if f, inFlight := r.flights[key]; inFlight {
		r.mu.Unlock()
		<-f.done
		if f.ok {
			r.hits.Add(1)
		} else {
			r.misses.Add(1)
		}
		return f.cell, f.ok
	}
	f := &flight{done: make(chan struct{})}
	r.flights[key] = f
	r.mu.Unlock()

	f.cell, f.ok = r.fetch(key)

	r.mu.Lock()
	delete(r.flights, key)
	if f.ok {
		r.front.Add(key, f.cell, 1)
	}
	r.mu.Unlock()
	close(f.done)
	if f.ok {
		r.hits.Add(1)
	} else {
		r.misses.Add(1)
	}
	return f.cell, f.ok
}

// fetch is the wire read. A miss is the 404, any other answer that is
// not a cell, or a failure still transient after the retry budget; the
// caller recomputes.
func (r *Remote) fetch(key string) (report.Cell, bool) {
	var cell report.Cell
	if r.call(http.MethodGet, cellsPathPrefix+url.PathEscape(key), nil, &cell) != nil {
		return report.Cell{}, false
	}
	return cell, true
}

// call is one cells round trip under the retry budget and the breaker:
// transient failures back off and try again, while any answer the
// remote gives, refusals included, counts as the remote being up.
func (r *Remote) call(method, path string, in, out any) error {
	if !r.brk.allow() {
		return errors.New("circuit open (remote failing)")
	}
	delay := r.retryBase
	for attempt := 0; ; attempt++ {
		err := r.conn.JSON(context.Background(), method, path, in, out)
		if !api.Transient(err) {
			r.brk.success()
			return err
		}
		r.brk.failure()
		if attempt >= r.retries || !r.brk.allow() {
			return err
		}
		<-r.wall.After(r.jitter(delay))
		delay *= 2
	}
}

// jitter spreads a backoff delay ±25% so many clients whose hub died
// do not retry in lockstep.
func (r *Remote) jitter(d time.Duration) time.Duration {
	r.rndMu.Lock()
	f := 0.75 + 0.5*r.rnd.Float64()
	r.rndMu.Unlock()
	return time.Duration(float64(d) * f)
}

// Put stores the cell locally and pushes it to the remote as a
// synchronous batch of one. A failed push returns an error the caller
// may log, but the LRU front already serves the cell — exactly how the
// local store degrades to memory-only on a failed disk append.
// Transient push failures retry within the same budget as Get; an open
// breaker fails the push instantly.
//
// With BatchSize configured the push is write-through batched instead:
// the entry queues locally and goes out with its batch (size, delay, or
// Flush/Close trigger), so a nil return only means "queued" — delivery
// errors surface from the flush that carries the entry.
func (r *Remote) Put(key string, cell report.Cell) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return fmt.Errorf("store: closed")
	}
	if r.front.Contains(key) {
		r.mu.Unlock()
		return nil
	}
	r.front.Add(key, cell, 1)
	r.mu.Unlock()
	r.puts.Add(1)

	body, err := json.Marshal(cell)
	if err != nil {
		return fmt.Errorf("store: encoding %s: %w", key, err)
	}
	if r.batchSize > 0 {
		return r.enqueue(key, body)
	}
	return r.flushEntries([]wireCell{{Key: key, Cell: body}})
}

// PutBatch stores every entry and ships the lot as one cells:batch
// round trip — even when write-through batching (BatchSize) is off:
// the caller handing us a batch IS the coalescing decision. Entries
// the LRU front already holds are skipped (content addressing).
func (r *Remote) PutBatch(entries []CellEntry) error {
	var pend []wireCell
	var errs []error
	for _, e := range entries {
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			errs = append(errs, fmt.Errorf("store: closed"))
			break
		}
		if r.front.Contains(e.Key) {
			r.mu.Unlock()
			continue
		}
		r.front.Add(e.Key, e.Cell, 1)
		r.mu.Unlock()
		r.puts.Add(1)
		body, err := json.Marshal(e.Cell)
		if err != nil {
			errs = append(errs, fmt.Errorf("store: encoding %s: %w", e.Key, err))
			continue
		}
		pend = append(pend, wireCell{Key: e.Key, Cell: body})
	}
	if len(pend) > 0 {
		if err := r.flushEntries(pend); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// enqueue adds one pre-marshaled cell to the pending batch, flushing
// inline when the batch is full and arming the delay flush otherwise.
func (r *Remote) enqueue(key string, body []byte) error {
	r.bmu.Lock()
	r.pending = append(r.pending, wireCell{Key: key, Cell: body})
	var full []wireCell
	if len(r.pending) >= r.batchSize {
		full, r.pending = r.pending, nil
	} else if !r.timerArmed {
		r.timerArmed = true
		go r.flushAfterDelay()
	}
	r.bmu.Unlock()
	if full != nil {
		return r.flushEntries(full)
	}
	return nil
}

// flushAfterDelay is the time-triggered flush: whatever queued within
// one BatchDelay goes out together, so a trickle of Puts never strands
// entries in the queue for longer than the delay.
func (r *Remote) flushAfterDelay() {
	<-r.wall.After(r.batchDelay)
	r.bmu.Lock()
	r.timerArmed = false
	entries := r.pending
	r.pending = nil
	r.bmu.Unlock()
	if len(entries) > 0 {
		_ = r.flushEntries(entries)
	}
}

// Flush pushes every queued write-through entry now. The suite runner
// calls it at job end; Close calls it too. A no-op without batching.
func (r *Remote) Flush() error {
	r.bmu.Lock()
	entries := r.pending
	r.pending = nil
	r.bmu.Unlock()
	if len(entries) == 0 {
		return nil
	}
	return r.flushEntries(entries)
}

// BatchPending reports queued-but-unflushed write-through entries
// (telemetry for tests and operators).
func (r *Remote) BatchPending() int {
	r.bmu.Lock()
	defer r.bmu.Unlock()
	return len(r.pending)
}

// flushEntries sends one batch over the wire under the usual retry
// budget and breaker. Entries that still fail after the budget are
// dropped (the front serves them, and a recompute elsewhere is always
// correct) with the error returned.
func (r *Remote) flushEntries(entries []wireCell) error {
	err := r.call(http.MethodPost, cellsBatchPath, struct {
		Cells []wireCell `json:"cells"`
	}{entries}, nil)
	if err != nil {
		return fmt.Errorf("store: pushing batch of %d: %w", len(entries), err)
	}
	return nil
}

// Stats snapshots this client's session counters. DiskEntries is always
// zero — the remote's population is the serving daemon's to report.
func (r *Remote) Stats() Stats {
	r.mu.Lock()
	mem := r.front.Len()
	r.mu.Unlock()
	return Stats{
		Hits:       r.hits.Load(),
		Misses:     r.misses.Load(),
		Puts:       r.puts.Load(),
		MemEntries: mem,
	}
}

// Lifetime returns the session counters: a remote client keeps no
// sidecar — cumulative history lives with the serving daemon's store.
func (r *Remote) Lifetime() Counters {
	return Counters{Hits: r.hits.Load(), Misses: r.misses.Load(), Puts: r.puts.Load()}
}

// BreakerState exposes the circuit state ("closed", "open",
// "half-open") for tests and operators.
func (r *Remote) BreakerState() string { return r.brk.stateName() }

// Close flushes any queued write-through entries and drops idle
// connections. The LRU stays readable in principle but Put rejects a
// closed store, mirroring the local Store.
func (r *Remote) Close() error {
	err := r.Flush()
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	r.conn.HC.CloseIdleConnections()
	return err
}

// --- circuit breaker --------------------------------------------------------

const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// breaker is the classic three-state circuit breaker: closed counts
// consecutive failures, open fails fast until the cooldown passes, and
// half-open admits exactly one probe whose outcome decides the next
// state.
type breaker struct {
	threshold int
	cooldown  time.Duration
	wall      clock.Wall

	mu       sync.Mutex
	state    int
	failures int
	openedAt time.Time
}

// allow reports whether a wire attempt may proceed, transitioning
// open → half-open when the cooldown has elapsed (the caller becomes
// the probe).
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if b.wall.Now().Sub(b.openedAt) >= b.cooldown {
			b.state = breakerHalfOpen
			return true
		}
		return false
	default: // half-open: the probe is already out
		return false
	}
}

// success closes the circuit and clears the failure streak.
func (b *breaker) success() {
	b.mu.Lock()
	b.state = breakerClosed
	b.failures = 0
	b.mu.Unlock()
}

// failure extends the streak; at the threshold — or instantly when a
// half-open probe fails — the circuit opens.
func (b *breaker) failure() {
	b.mu.Lock()
	b.failures++
	if b.state == breakerHalfOpen || b.failures >= b.threshold {
		b.state = breakerOpen
		b.openedAt = b.wall.Now()
	}
	b.mu.Unlock()
}

func (b *breaker) stateName() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	}
	return "closed"
}
