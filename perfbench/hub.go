package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/dispatch"
	"repro/internal/report"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/suite"
)

// storeMemEntries is `ptest serve`'s -store-mem default.
const storeMemEntries = 4096

// setupRepeats is how many times a run builds its topology; setup_s is
// the median.
const setupRepeats = 3

// jobTimeout bounds one job so a wedged hub fails the run instead of
// hanging it.
const jobTimeout = 60 * time.Second

// quickSpec is the fleet job shape: 2 workloads × 3 tools = 6 cells of a
// few milliseconds each, so simulation is a small share of a job and the
// hub, worker and store do the work. n ≤ 4 varies with the seed.
func quickSpec(seed uint64) []byte {
	n := 2 + seed%3
	return []byte(fmt.Sprintf(`{"name":"quick","seed":%d,"trials":2,"keep_going":true,"max_steps":100000,
"workloads":[{"name":"quicksort","seed":5,"gc_every":4},{"name":"prodcons"}],
"ops":["roundrobin"],"points":[{"n":%d,"s":%d}],
"tools":[{"name":"adaptive"},{"name":"chess","max_schedules":2},{"name":"pct","depth":2}]}`, seed, n, 2*n))
}

// warmupSpec is the one-cell job every hub set-up ends with, so the
// worker has leased, executed and completed once before timing starts.
func warmupSpec(seed uint64) []byte {
	return []byte(fmt.Sprintf(`{"name":"warmup","seed":%d,"trials":2,"max_steps":100000,
"workloads":[{"name":"quicksort","seed":5,"gc_every":4}],
"ops":["roundrobin"],"points":[{"n":2,"s":4}],"tools":[{"name":"adaptive"}]}`, seed))
}

// derive draws the seed of one generated input from the run seed, a
// stream name and an index, so inputs are a pure function of --seed.
func derive(seed uint64, stream string, i int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, stream, i)
	x := h.Sum64() + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return (x ^ (x >> 31)) >> 1 // the JSON spec seed is a positive int
}

func parseSpec(js []byte) (*suite.Spec, error) {
	return suite.Parse(bytes.NewReader(js))
}

// hub is the fleet topology: ptestd on a disk store in a temporary
// directory behind a loopback listener, one in-process worker with the
// `ptest serve -hub-url -workers <nproc>` configuration, and one client.
// With a recorder every layer boundary is wrapped; without one, nothing
// is.
type hub struct {
	dir        string
	st         *store.Store
	srv        *server.Server
	httpSrv    *http.Server
	served     chan error
	base       string
	client     *server.Client
	stopWorker context.CancelFunc
	workerDone chan error
	rec        *recorder
}

// startHub builds the topology. populate, when set, fills the store
// directory first; the hub then opens it with an empty LRU.
func startHub(scratch string, populate func(dir string) error, rec *recorder) (h *hub, err error) {
	h = &hub{rec: rec, served: make(chan error, 1), workerDone: make(chan error, 1)}
	if h.dir, err = os.MkdirTemp(scratch, "hub-"); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			h.close()
		}
	}()
	if populate != nil {
		if err := populate(h.dir); err != nil {
			return h, err
		}
	}
	if h.st, err = store.Open(store.Config{Dir: h.dir, MemEntries: storeMemEntries}); err != nil {
		return h, err
	}
	var cs store.CellStore = h.st
	if rec != nil {
		cs = timedStore{Store: h.st, rec: rec}
	}
	if h.srv, err = server.New(server.Config{Store: cs}); err != nil {
		return h, err
	}
	handler := h.srv.Handler()
	if rec != nil {
		handler = rec.middleware(handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return h, err
	}
	h.base = "http://" + ln.Addr().String()
	h.httpSrv = &http.Server{Handler: handler}
	h.srv.Start()
	go func() { h.served <- h.httpSrv.Serve(ln) }()

	hc := &http.Client{}
	wcfg := dispatch.WorkerConfig{HubURL: h.base, Name: "perfbench", Parallelism: runtime.NumCPU()}
	if rec != nil {
		hc.Transport = &transport{base: http.DefaultTransport, rec: rec, layer: "client"}
		// The worker's default client, plus the span wrapper.
		wcfg.HTTPClient = &http.Client{Timeout: 30 * time.Second,
			Transport: &transport{base: http.DefaultTransport, rec: rec, layer: "dispatch"}}
	}
	h.client = server.NewClient(h.base, server.WithHTTPClient(hc))
	w, err := dispatch.NewWorker(wcfg)
	if err != nil {
		return h, err
	}
	wctx, stop := context.WithCancel(context.Background())
	h.stopWorker = stop
	go func() { h.workerDone <- w.Run(wctx) }()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for {
		ws, err := h.client.Workers(ctx)
		if err != nil {
			return h, fmt.Errorf("waiting for the worker: %w", err)
		}
		if len(ws) > 0 && ws[0].Live {
			return h, nil
		}
		select {
		case <-ctx.Done():
			return h, fmt.Errorf("worker never registered: %w", ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// close stops the worker (which deregisters), the listener, the job
// pool and the store, and removes the directory.
func (h *hub) close() {
	if h.stopWorker != nil {
		h.stopWorker()
		<-h.workerDone
	}
	if h.httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = h.httpSrv.Shutdown(ctx)
		cancel()
		<-h.served
	}
	if h.srv != nil {
		h.srv.Drain()
	}
	if h.st != nil {
		_ = h.st.Close()
	}
	_ = os.RemoveAll(h.dir)
}

// hubRun is one job the client ran.
type hubRun struct {
	info  server.JobInfo
	canon []byte
	ms    float64
	// full is the report with its timing fields, fetched after the
	// latency clock stopped (traced phases only).
	full *report.Report
}

// runJob is one closed-loop operation: Submit, Watch until done, then
// fetch the canonical report. Its latency runs from Submit until the
// report is in hand.
func (h *hub) runJob(token string, specJSON []byte) (hubRun, error) {
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	var run hubRun
	var root *active
	if h.rec != nil {
		spec, err := parseSpec(specJSON)
		if err != nil {
			return run, err
		}
		var keys []string
		for _, c := range spec.Expand() {
			keys = append(keys, spec.CellKey(c))
		}
		h.rec.ownKeys(token, keys)
		root = h.rec.start("job", 0, token)
	}
	tctx := ctx
	if root != nil {
		tctx = withParent(ctx, root.s.ID)
	}
	t0 := time.Now()
	info, err := h.client.Submit(tctx, bytes.NewReader(specJSON), 0)
	if err == nil {
		if h.rec != nil {
			h.rec.named(token, info.ID)
		}
		run.info, err = h.client.Watch(tctx, info.ID, nil)
	}
	if err == nil && run.info.Status != server.JobDone {
		err = fmt.Errorf("job %s ended %s: %s", info.ID, run.info.Status, run.info.Error)
	}
	if err == nil {
		run.canon, err = h.client.ReportBytes(tctx, info.ID, true)
	}
	run.ms = ms(time.Since(t0))
	if root != nil {
		root.finish()
	}
	if err != nil {
		return run, err
	}
	if h.rec != nil {
		if run.full, err = h.client.Report(ctx, info.ID, false); err != nil {
			return run, err
		}
	}
	return run, nil
}

// scrape reads the hub's unlabelled /metrics samples.
func (h *hub) scrape() (map[string]float64, error) {
	resp, err := http.Get(h.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// hubWorkload is what distinguishes fleet-cold from hub-warm.
type hubWorkload struct {
	cfg config
	// populate fills a fresh store directory before the hub opens it.
	populate func(dir string) error
	// next is the spec of the i-th job of a phase.
	next func(phase string, i int) []byte
	// want is the canonical report a spec must produce.
	want func(spec []byte) ([]byte, error)
	// allHits requires every cell of every job to come from the store.
	allHits bool
	// checkAfter defers the gate to after the phase, for references that
	// are local runs too costly to take between timed jobs.
	checkAfter bool
}

// setUp builds the topology and runs the warm-up job, returning the hub
// and the seconds that took.
func (w hubWorkload) setUp(k int, rec *recorder, g *gate) (*hub, float64, error) {
	t0 := time.Now()
	h, err := startHub(w.cfg.scratch, w.populate, rec)
	if err != nil {
		return nil, 0, err
	}
	warm := warmupSpec(derive(w.cfg.seed, "warmup", k))
	run, err := h.runJob("warmup", warm)
	setup := time.Since(t0).Seconds()
	if err != nil {
		h.close()
		return nil, 0, fmt.Errorf("warm-up job: %w", err)
	}
	spec, err := parseSpec(warm)
	if err != nil {
		h.close()
		return nil, 0, err
	}
	want, err := reference(spec)
	if err != nil {
		h.close()
		return nil, 0, err
	}
	g.compare("warm-up job", 1, run.canon, want)
	return h, setup, nil
}

// phase runs jobs closed-loop for d and checks each against its
// reference. It returns the passing jobs' latencies and how many cells
// passed. With t set it also folds each job's full report into the
// traced numbers as the job finishes.
func (w hubWorkload) phase(h *hub, name string, d time.Duration, g *gate, t *tracedPhase) (lat []float64, cells int, wall, cpu time.Duration) {
	// finished is what a deferred check needs of one job.
	type finished struct {
		spec  []byte
		info  server.JobInfo
		canon []byte
		ms    float64
	}
	var deferred []finished
	check := func(i int, f finished) {
		n := f.info.TotalCells
		if w.allHits && (f.info.CellsExecuted != 0 || f.info.StoreHits != uint64(n)) {
			g.fail(n, "%s job %s: %d of %d cells executed, want every cell from the store",
				name, f.info.ID, f.info.CellsExecuted, n)
			return
		}
		want, err := w.want(f.spec)
		if err != nil {
			g.fail(n, "%s job %s: %v", name, f.info.ID, err)
			return
		}
		if g.compare(fmt.Sprintf("%s job %d (%s)", name, i, f.info.ID), n, f.canon, want) {
			lat = append(lat, f.ms)
			cells += n
		}
	}
	cpu0, t0 := cpuTime(), time.Now()
	for i := 0; time.Since(t0) < d; i++ {
		spec := w.next(name, i)
		run, err := h.runJob(fmt.Sprintf("%s-%d", name, i), spec)
		if err != nil {
			g.fail(cellCount(spec), "%s job %d: %v", name, i, err)
			if errors.Is(err, context.DeadlineExceeded) {
				break
			}
			continue
		}
		if t != nil {
			t.absorb(run)
		}
		f := finished{spec, run.info, run.canon, run.ms}
		if w.checkAfter {
			deferred = append(deferred, f)
		} else {
			// A cheap compare, so the benchmark keeps nothing per job and
			// its memory does not grow with the job count.
			check(i, f)
		}
	}
	wall, cpu = time.Since(t0), cpuTime()-cpu0
	for i, f := range deferred {
		check(i, f)
	}
	return lat, cells, wall, cpu
}

// absorb folds one traced job's full report into the traced numbers.
func (t *tracedPhase) absorb(run hubRun) {
	if len(t.reportBytes) == 0 {
		t.firstCycles = run.full.Totals.TotalCycles
	}
	t.reportBytes = append(t.reportBytes, float64(len(run.canon)))
	t.pfaCompiles += run.full.PFACompiles
	executed := 0.0
	if run.full.StoreHits == 0 {
		for _, c := range run.full.Cells {
			t.execs = append(t.execs, execRecord{c.Tool, c.WallMS, c.Summary})
			executed += c.WallMS
		}
	}
	t.waitMS += max(0, run.ms-executed)
}

func cellCount(spec []byte) int {
	s, err := parseSpec(spec)
	if err != nil {
		return 1
	}
	return len(s.Expand())
}

// run measures the workload: setupRepeats set-ups, an untraced phase,
// and in trace mode a second, traced set-up and phase.
func (w hubWorkload) run() (*outcome, error) {
	out := &outcome{}
	g := &out.gate
	d := w.cfg.seconds
	if w.cfg.trace {
		d /= 2
	}
	var setups []float64
	var h *hub
	for k := 0; k < setupRepeats; k++ {
		if h != nil {
			h.close()
		}
		var s float64
		var err error
		if h, s, err = w.setUp(k, nil, g); err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	lat, cells, wall, cpu := w.phase(h, "timed", d, g, nil)
	h.close()
	out.e2e = endToEnd(setups, lat, cells, wall, cpu)
	if !w.cfg.trace {
		return out, nil
	}

	rec := newRecorder()
	h, _, err := w.setUp(setupRepeats, rec, g)
	if err != nil {
		return nil, err
	}
	defer h.close()
	promBefore, err := h.scrape()
	if err != nil {
		return nil, err
	}
	storeBefore := h.st.Stats()
	rec.reset()
	t := tracedPhase{untracedP50: median(lat), execOnWorker: true}
	t.jobs, t.cells, _, _ = w.phase(h, "traced", d, g, &t)
	spans := rec.snapshot()
	promAfter, err := h.scrape()
	if err != nil {
		return nil, err
	}
	t.storeDelta = storeDelta(storeBefore, h.st.Stats())
	t.promDelta = map[string]float64{}
	for k, v := range promAfter {
		t.promDelta[k] = v - promBefore[k]
	}
	adoptOrphans(spans)
	t.spans = spans
	if err := writeSpans(w.cfg, spans); err != nil {
		return nil, err
	}
	spec, err := parseSpec(w.next("probe", 0))
	if err != nil {
		return nil, err
	}
	p, err := runProbes(spec, w.cfg.seed)
	if err != nil {
		return nil, err
	}
	out.layers = layerRows(t, p)
	return out, nil
}

// runFleetCold: every job has a fresh spec seed, so every cell misses
// the store and is leased to the worker, executed, completed and put.
func runFleetCold(cfg config) (*outcome, error) {
	w := hubWorkload{
		cfg:        cfg,
		checkAfter: true,
		next: func(phase string, i int) []byte {
			return quickSpec(derive(cfg.seed, phase, i))
		},
		want: func(specJSON []byte) ([]byte, error) {
			spec, err := parseSpec(specJSON)
			if err != nil {
				return nil, err
			}
			return reference(spec)
		},
	}
	return w.run()
}

// warmSpecs is how many distinct specs hub-warm writes into the store:
// 1536 cells, which the hub's 4096-entry LRU holds after one pass.
const warmSpecs = 256

// runHubWarm: set-up writes warmSpecs specs into the store through the
// suite runner, and the timed phase resubmits them in seeded shuffled
// passes. The first pass reads segments, later ones the LRU; every cell
// must be a store hit, so the worker idles.
func runHubWarm(cfg config) (*outcome, error) {
	specs := make([][]byte, warmSpecs)
	for i := range specs {
		specs[i] = quickSpec(derive(cfg.seed, "warm", i))
	}
	refs := map[string][]byte{}
	populate := func(dir string) error {
		st, err := store.Open(store.Config{Dir: dir, MemEntries: storeMemEntries})
		if err != nil {
			return err
		}
		for _, js := range specs {
			spec, err := parseSpec(js)
			if err != nil {
				_ = st.Close()
				return err
			}
			rep, err := suite.RunContext(context.Background(), spec, nil, suite.Options{Store: st})
			if err != nil {
				_ = st.Close()
				return err
			}
			// The populate run is local and sequential: its canonical
			// report is the reference every resubmission must match.
			refs[string(js)] = canonicalBytes(rep)
		}
		return st.Close()
	}
	orders := map[string][][]int{}
	w := hubWorkload{
		cfg:      cfg,
		populate: populate,
		allHits:  true,
		next: func(phase string, i int) []byte {
			pass := i / warmSpecs
			for len(orders[phase]) <= pass {
				rng := newRand(derive(cfg.seed, phase, len(orders[phase])))
				orders[phase] = append(orders[phase], rng.Perm(warmSpecs))
			}
			return specs[orders[phase][pass][i%warmSpecs]]
		},
		want: func(spec []byte) ([]byte, error) {
			ref, ok := refs[string(spec)]
			if !ok {
				return nil, errors.New("spec was never written to the store")
			}
			return ref, nil
		},
	}
	return w.run()
}
