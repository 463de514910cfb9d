package main

// Tracing for the traced half of a --trace 1 run. Every wrapper here is
// installed only when a phase is built with a recorder, so an untraced
// phase runs exactly the shipped code path: the hub's own handler, the
// store itself, default HTTP clients, and no suite Exec hook.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dispatch"
	"repro/internal/eventlog"
	"repro/internal/report"
	"repro/internal/store"
)

// span is one wrapped call. Times are microseconds since the recorder's
// epoch. Name is "<layer>.<route or call>".
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Job    string  `json:"job,omitempty"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
	// Grants is how many cells a lease:batch reply granted.
	Grants int `json:"grants,omitempty"`
}

func (s span) dur() float64 { return s.End - s.Start }

// layer is the module a span's time is charged to. The SSE event stream
// is charged to "wait": its handler only blocks until the job finishes,
// so its self time is the time no other layer was working on the job.
func (s span) layer() string {
	if s.Name == "server.events" {
		return "wait"
	}
	l, _, _ := strings.Cut(s.Name, ".")
	if l == "job" {
		return "client"
	}
	return l
}

// recorder keeps spans in memory until the run writes them out.
type recorder struct {
	epoch time.Time
	ids   atomic.Int64

	mu     sync.Mutex
	spans  []span
	keyJob map[string]string // cell key → token of the job owning it
	jobIDs map[string]string // job token → the hub's job id
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), keyJob: map[string]string{}, jobIDs: map[string]string{}}
}

func (r *recorder) now() float64 { return float64(time.Since(r.epoch)) / float64(time.Microsecond) }

// active is a span still running.
type active struct {
	r    *recorder
	s    span
	once sync.Once
}

func (r *recorder) start(name string, parent int64, job string) *active {
	return &active{r: r, s: span{ID: r.ids.Add(1), Parent: parent, Name: name, Job: job, Start: r.now()}}
}

func (a *active) finish() {
	a.once.Do(func() {
		a.s.End = a.r.now()
		a.r.mu.Lock()
		a.r.spans = append(a.r.spans, a.s)
		a.r.mu.Unlock()
	})
}

// reset drops the spans recorded so far (set-up traffic) so the phase's
// numbers cover the phase alone.
func (r *recorder) reset() {
	r.mu.Lock()
	r.spans = nil
	r.mu.Unlock()
}

// snapshot copies the spans, naming every job by the hub's id.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]span(nil), r.spans...)
	for i := range out {
		if id, ok := r.jobIDs[out[i].Job]; ok {
			out[i].Job = id
		}
	}
	return out
}

// ownKeys attributes the store calls for these cell keys to the job the
// benchmark calls token. The hub may touch the store before Submit
// returns its id, so spans carry the token until snapshot resolves it.
func (r *recorder) ownKeys(token string, keys []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, k := range keys {
		r.keyJob[k] = token
	}
}

// named records the hub's id for the job the benchmark calls token.
func (r *recorder) named(token, id string) {
	r.mu.Lock()
	r.jobIDs[token] = id
	r.mu.Unlock()
}

func (r *recorder) jobOfKey(key string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.keyJob[key]
}

// writeSpans dumps a traced phase's spans as JSON lines into the
// scratch directory.
func writeSpans(cfg config, spans []span) error {
	path := filepath.Join(cfg.scratch, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.name, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// The parent span travels in the context on the caller's side and in a
// request header across the loopback hop to the hub.
type parentKey struct{}

const spanHeader = "X-Perfbench-Span"

func withParent(ctx context.Context, id int64) context.Context {
	return context.WithValue(ctx, parentKey{}, id)
}

func parentOf(ctx context.Context) int64 {
	id, _ := ctx.Value(parentKey{}).(int64)
	return id
}

// routes are the hub routes a timed phase's traffic reaches; anything
// else (registration, listing, /metrics) happens outside the phase and
// would show under "other".
var routes = []string{"submit", "events", "report", "spec", "heartbeat", "lease_batch", "other"}

// routeOf names the hub route a request targets.
func routeOf(method, path string) string {
	if method == http.MethodPost && path == "/api/v1/jobs" {
		return "submit"
	}
	if rest, ok := strings.CutPrefix(path, "/api/v1/jobs/"); ok {
		switch _, sub, _ := strings.Cut(rest, "/"); sub {
		case "events", "report", "spec":
			return sub
		}
	}
	if rest, ok := strings.CutPrefix(path, "/api/v1/workers/"); ok {
		switch _, sub, _ := strings.Cut(rest, "/"); sub {
		case "heartbeat":
			return "heartbeat"
		case "lease:batch":
			return "lease_batch"
		}
	}
	return "other"
}

// jobOfPath extracts the job id of a /api/v1/jobs/{id}/... request.
func jobOfPath(path string) string {
	rest, ok := strings.CutPrefix(path, "/api/v1/jobs/")
	if !ok {
		return ""
	}
	id, _, _ := strings.Cut(rest, "/")
	return id
}

// transport wraps an HTTP client's RoundTripper: one span per request,
// ended when the caller closes the body, so a streamed reply is timed
// until the caller is done reading it. layer is "client" for the
// benchmark's client and "dispatch" for the worker.
type transport struct {
	base  http.RoundTripper
	rec   *recorder
	layer string
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	route := routeOf(req.Method, req.URL.Path)
	sp := t.rec.start(t.layer+"."+route, parentOf(req.Context()), jobOfPath(req.URL.Path))
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatInt(sp.s.ID, 10))
	if route == "lease_batch" && req.Body != nil {
		// Completions name the job they settle.
		raw, err := io.ReadAll(req.Body)
		_ = req.Body.Close()
		if err != nil {
			sp.finish()
			return nil, err
		}
		req.Body = io.NopCloser(bytes.NewReader(raw))
		var lb dispatch.LeaseBatchRequest
		if json.Unmarshal(raw, &lb) == nil && len(lb.Completions) > 0 {
			sp.s.Job = lb.Completions[0].JobID
		}
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		sp.finish()
		return nil, err
	}
	if route == "lease_batch" && resp.StatusCode == http.StatusOK {
		raw, err := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if err != nil {
			sp.finish()
			return nil, err
		}
		resp.Body = io.NopCloser(bytes.NewReader(raw))
		var lb dispatch.LeaseBatchResponse
		if json.Unmarshal(raw, &lb) == nil {
			sp.s.Grants = len(lb.Grants)
			if len(lb.Grants) > 0 {
				sp.s.Job = lb.Grants[0].JobID
			}
		}
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, sp: sp}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	sp *active
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.sp.finish()
	return err
}

// middleware times the hub's handler per route, parented to the calling
// client's span.
func (r *recorder) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		parent, _ := strconv.ParseInt(req.Header.Get(spanHeader), 10, 64)
		sp := r.start("server."+routeOf(req.Method, req.URL.Path), parent, jobOfPath(req.URL.Path))
		defer sp.finish()
		next.ServeHTTP(w, req)
	})
}

// timedStore is the traced store: *store.Store with spans around Get,
// Put and PutBatch. Embedding the concrete store promotes every other
// method, so the hub's type assertions for optional faces (batch puts,
// compaction, events, degradation, reclaimable bytes) answer exactly as
// they do for the bare store; TestTimedStoreFaces pins that.
type timedStore struct {
	*store.Store
	rec *recorder
}

func (t timedStore) Get(key string) (report.Cell, bool) {
	sp := t.rec.start("store.get", 0, t.rec.jobOfKey(key))
	defer sp.finish()
	return t.Store.Get(key)
}

func (t timedStore) Put(key string, cell report.Cell) error {
	sp := t.rec.start("store.put", 0, t.rec.jobOfKey(key))
	defer sp.finish()
	return t.Store.Put(key, cell)
}

func (t timedStore) PutBatch(entries []store.CellEntry) error {
	job := ""
	if len(entries) > 0 {
		job = t.rec.jobOfKey(entries[0].Key)
	}
	sp := t.rec.start("store.put", 0, job)
	defer sp.finish()
	return t.Store.PutBatch(entries)
}

// optionalFaces lists the optional interfaces the hub and the suite
// runner look for on a CellStore.
func optionalFaces(cs store.CellStore) []string {
	var faces []string
	add := func(ok bool, name string) {
		if ok {
			faces = append(faces, name)
		}
	}
	_, ok := cs.(store.BatchPutter)
	add(ok, "BatchPutter")
	_, ok = cs.(store.Flusher)
	add(ok, "Flusher")
	_, ok = cs.(store.Compactor)
	add(ok, "Compactor")
	_, ok = cs.(store.PolicyCompactor)
	add(ok, "PolicyCompactor")
	_, ok = cs.(interface{ SetEvents(*eventlog.Recorder) })
	add(ok, "SetEvents")
	_, ok = cs.(interface{ Degraded() bool })
	add(ok, "Degraded")
	_, ok = cs.(interface{ Reclaimable() int64 })
	add(ok, "Reclaimable")
	return faces
}

// selfTimes charges every span its duration minus the part of it its
// children cover, summed per layer, in microseconds.
func selfTimes(spans []span) map[string]float64 {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]float64{}
	for _, s := range spans {
		self[s.layer()] += s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of s's interval that the union of kids covers.
func covered(s span, kids []span) float64 {
	type iv struct{ a, b float64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, s.Start), min(k.End, s.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	total, cur := 0.0, ivs[0]
	for _, v := range ivs[1:] {
		if v.a > cur.b {
			total += cur.b - cur.a
			cur = v
			continue
		}
		cur.b = max(cur.b, v.b)
	}
	return total + cur.b - cur.a
}

// adoptOrphans makes each store and dispatch span that has no caller
// span of its own a child of the event-stream span its job's client was
// blocked on at the time, so the stream's self time is the time nothing
// else worked on the job.
func adoptOrphans(spans []span) {
	streams := map[string][]int{}
	for i, s := range spans {
		if s.Name == "server.events" && s.Job != "" {
			streams[s.Job] = append(streams[s.Job], i)
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.Parent != 0 || s.Job == "" || !(strings.HasPrefix(s.Name, "store.") || strings.HasPrefix(s.Name, "dispatch.")) {
			continue
		}
		for _, j := range streams[s.Job] {
			if e := spans[j]; s.Start >= e.Start && s.End <= e.End {
				s.Parent = e.ID
				break
			}
		}
	}
}
