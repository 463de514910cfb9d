// ptest serve: run ptestd, the campaign job server. Suite specs arrive
// over HTTP, queue on a bounded priority queue, execute on the shared
// campaign engine, and memoize every cell in the content-addressed
// result store; SIGTERM/SIGINT drains gracefully (running jobs finish,
// queued ones are cancelled, nothing dies mid-write).
//
// With -hub-url the same subcommand becomes a fleet worker instead: no
// listener, no queue — it registers with the hub ptestd, leases cells,
// executes them, and posts completions over the same lease:batch call
// that keeps it live. SIGTERM finishes in-flight cells and
// deregisters; a worker that simply dies is recovered by the hub's
// lease expiry.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/dispatch"
	"repro/internal/eventlog"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/tenant"
)

// apiKeyFlag registers the shared -api-key flag; $PTEST_API_KEY is the
// default so shared-hub credentials stay out of shell history.
func apiKeyFlag(fs *flag.FlagSet) *string {
	return fs.String("api-key", os.Getenv("PTEST_API_KEY"),
		"API key for a ptestd running -auth-keys (default: $PTEST_API_KEY)")
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("ptest serve", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:8321", "listen address")
		workers  = fs.Int("workers", 0, "concurrent jobs (0 = one per CPU)")
		queueCap = fs.Int("queue", 64, "job queue capacity (submissions past it get 503)")
		maxJobs  = fs.Int("max-jobs", 512, "retained job records (oldest finished jobs pruned past this)")
		storeDir = fs.String("store", "", "result-store directory (empty: memory-only, lost on exit)")
		storeMem = fs.Int("store-mem", 4096, "result-store in-memory LRU entries")
		autoGC   = fs.Int64("store-autocompact", 0, "background-compact the local store when reclaimable bytes exceed this (0 = off)")

		storeMaxAge  = fs.Duration("store-max-age", 0, "GC: expire store entries older than this on autocompaction (needs -store-autocompact)")
		storeMaxIdle = fs.Duration("store-max-idle", 0, "GC: expire store entries not hit for this long on autocompaction (needs -store-autocompact)")
		hubURL       = fs.String("hub-url", "", "join a hub ptestd's fleet as a cell worker instead of serving (no listener)")
		hubName      = fs.String("name", "", "worker name shown by `ptest client workers` (default: hostname; -hub-url only)")
		leaseBatch   = fs.Int("lease-batch", 0, "cells leased per hub round trip (0 = auto from -workers; -hub-url only)")
		leaseLinger  = fs.Duration("complete-linger", 0, "longest a finished cell waits to share a completion round trip (0 = 100ms default; -hub-url only)")

		eventsCap = fs.Int("events", 0, "fleet event-log ring capacity; enables /api/v1/events and event emission (0 = off)")
		eventsLog = fs.String("events-log", "", "append every event as JSONL to this file (needs -events)")

		authKeys    = fs.String("auth-keys", "", "keyfile of `key tenant role` lines; set to require auth on /api/v1 (empty: anonymous mode)")
		submitRate  = fs.Float64("submit-rate", 0, "per-tenant job submissions per second (0 = unlimited)")
		submitBurst = fs.Int("submit-burst", 1, "per-tenant submission burst (with -submit-rate)")
		maxInflight = fs.Int("max-inflight", 0, "per-tenant concurrently running jobs (0 = uncapped; admins exempt)")
		maxQueued   = fs.Int("max-queued", 0, "per-tenant queued-job backlog (0 = uncapped; admins exempt)")
		apiKey      = apiKeyFlag(fs)
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *hubURL != "" {
		// Worker mode executes leased cells for the hub; it owns no
		// listener, queue, or store, so the server-side flags make no
		// sense here — reject any that were set explicitly.
		var conflict string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "addr", "queue", "max-jobs", "store", "store-mem", "store-autocompact",
				"store-max-age", "store-max-idle",
				"events", "events-log",
				"auth-keys", "submit-rate", "submit-burst", "max-inflight", "max-queued":
				conflict = f.Name
			}
		})
		if conflict != "" {
			return usagef("serve: -%s does not apply in -hub-url worker mode", conflict)
		}
		return serveWorker(*hubURL, *hubName, *workers, *apiKey, *leaseBatch, *leaseLinger)
	}
	if *hubName != "" {
		return usagef("serve: -name only applies with -hub-url")
	}
	if *leaseBatch != 0 {
		return usagef("serve: -lease-batch only applies with -hub-url")
	}
	if *leaseLinger != 0 {
		return usagef("serve: -complete-linger only applies with -hub-url")
	}
	if *queueCap <= 0 {
		return usagef("serve: -queue must be positive")
	}

	if *autoGC > 0 && *storeDir == "" {
		return usagef("serve: -store-autocompact needs a local -store directory")
	}
	if (*storeMaxAge > 0 || *storeMaxIdle > 0) && *autoGC <= 0 {
		// The GC policy only runs when a compaction pass runs; without
		// autocompaction nothing would ever apply it, which reads like
		// retention but isn't.
		return usagef("serve: -store-max-age/-store-max-idle need -store-autocompact")
	}
	tenancy := tenant.Config{
		SubmitRate: *submitRate, SubmitBurst: *submitBurst,
		MaxInFlight: *maxInflight, MaxQueued: *maxQueued,
	}
	if *authKeys != "" {
		keys, err := tenant.LoadKeyfile(*authKeys)
		if err != nil {
			return fmt.Errorf("serve: -auth-keys: %w", err)
		}
		tenancy.Keys = keys
	}
	// Event log: off by default (the daemon stays byte-identical to a
	// build without it); -events N buys a bounded ring plus the
	// /api/v1/events endpoint, and -events-log additionally appends
	// every event as a JSONL audit trail.
	var rec *eventlog.Recorder
	if *eventsLog != "" && *eventsCap <= 0 {
		return usagef("serve: -events-log needs -events")
	}
	if *eventsCap > 0 {
		ecfg := eventlog.Config{Capacity: *eventsCap}
		if *eventsLog != "" {
			// Replay an existing JSONL trail into the ring before appending
			// to it: the daemon restarts with its recent history visible on
			// /api/v1/events, and sequence ids continue past the old file's
			// highest — a watcher's Last-Event-ID survives the restart.
			if prev, err := os.Open(*eventsLog); err == nil {
				ecfg.Replay = eventlog.ReadJSONL(prev)
				_ = prev.Close()
			}
			f, err := os.OpenFile(*eventsLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return fmt.Errorf("serve: -events-log: %w", err)
			}
			defer f.Close()
			ecfg.Sink = f
		}
		rec = eventlog.New(ecfg)
	}

	st, err := store.Open(store.Config{
		Dir: *storeDir, MemEntries: *storeMem, AutoCompactMinBytes: *autoGC,
		GC: store.GCPolicy{MaxAge: *storeMaxAge, MaxIdle: *storeMaxIdle},
	})
	if err != nil {
		return err
	}
	defer st.Close()

	srv, err := server.New(server.Config{
		Workers: *workers, QueueCap: *queueCap, MaxJobs: *maxJobs, Store: st,
		Tenancy: tenancy, Events: rec,
	})
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	done := make(chan struct{})
	defer close(done)
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	go func() {
		select {
		case <-sigc:
			// Release the handler: a second signal kills a stuck drain.
			signal.Stop(sigc)
			fmt.Fprintln(os.Stderr, "ptestd: draining (running jobs finish, queued jobs cancel; signal again to abort hard)")
			shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_ = httpSrv.Shutdown(shutCtx)
		case <-done:
		}
	}()

	auth := "anonymous"
	if len(tenancy.Keys) > 0 {
		auth = fmt.Sprintf("enforced (%d keys)", len(tenancy.Keys))
	}
	obs := "off"
	if rec != nil {
		obs = fmt.Sprintf("ring %d", *eventsCap)
	}
	srv.Start()
	fmt.Fprintf(os.Stderr, "ptestd: listening on %s (workers=%d queue=%d store=%s auth=%s events=%s); dashboard at http://%s/ui\n",
		*addr, *workers, *queueCap, storeDesc(*storeDir), auth, obs, *addr)
	err = httpSrv.ListenAndServe()
	if !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	srv.Drain()
	fmt.Fprintln(os.Stderr, "ptestd: drained")
	return nil
}

// serveWorker is `ptest serve -hub-url`: one fleet worker process.
// Graceful shutdown (SIGTERM/SIGINT) finishes the cells it holds and
// deregisters; the hub recovers anything less graceful via lease
// expiry.
func serveWorker(hubURL, name string, parallel int, apiKey string, leaseBatch int, linger time.Duration) error {
	w, err := dispatch.NewWorker(dispatch.WorkerConfig{
		HubURL:         hubURL,
		Name:           name,
		Parallelism:    parallel,
		APIKey:         apiKey,
		LeaseBatch:     leaseBatch,
		CompleteLinger: linger,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		return usageError{err}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(os.Stderr, "ptestd worker: joining fleet at %s\n", hubURL)
	if err := w.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
		return err
	}
	fmt.Fprintf(os.Stderr, "ptestd worker: drained after %d cells\n", w.Completed())
	return nil
}

func storeDesc(dir string) string {
	if dir != "" {
		return dir
	}
	return "memory"
}
