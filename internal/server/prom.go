// Prometheus exposition of the daemon's counters: the same numbers the
// old flat /metrics dump carried, upgraded to the text format 0.0.4 a
// real scraper validates — every family gets a # HELP and # TYPE
// header, samples of one family are contiguous, and label values are
// escaped per the spec. Sample lines keep their exact historical shape
// (`name 3`, `name{tenant="x"} 2`), so anything grepping the old
// endpoint still matches.
package server

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"
)

// promFamily writes one metric family: header first, then samples.
type promFamily struct {
	w    io.Writer
	name string
}

// family starts a metric family with its # HELP / # TYPE preamble.
// typ is "counter" or "gauge".
func family(w io.Writer, name, typ, help string) promFamily {
	fmt.Fprintf(w, "# HELP %s %s\n", name, escapeHelp(help))
	fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
	return promFamily{w: w, name: name}
}

// sample emits one unlabeled sample.
func (f promFamily) sample(v any) {
	fmt.Fprintf(f.w, "%s %v\n", f.name, v)
}

// with emits one sample with labels, given as name, value pairs, in
// the order provided.
func (f promFamily) with(v any, labels ...string) {
	var b strings.Builder
	for i := 0; i+1 < len(labels); i += 2 {
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, labels[i], escapeLabel(labels[i+1]))
	}
	fmt.Fprintf(f.w, "%s{%s} %v\n", f.name, b.String(), v)
}

// escapeLabel escapes a label value per the exposition format:
// backslash, double-quote, and newline.
func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// escapeHelp escapes a help string: backslash and newline only.
func escapeHelp(v string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	st := s.store.Stats()
	s.mu.Lock()
	var running int
	for _, j := range s.jobs {
		if j.Info().Status == JobRunning {
			running++
		}
	}
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")

	family(w, "ptestd_jobs_submitted_total", "counter", "Jobs accepted onto the queue.").sample(s.met.submitted.Load())
	family(w, "ptestd_jobs_rejected_total", "counter", "Submissions refused (queue full, quota exceeded).").sample(s.met.rejected.Load())
	family(w, "ptestd_jobs_completed_total", "counter", "Jobs finished successfully.").sample(s.met.completed.Load())
	family(w, "ptestd_jobs_failed_total", "counter", "Jobs that errored.").sample(s.met.failed.Load())
	family(w, "ptestd_jobs_cancelled_total", "counter", "Jobs cancelled (queued or mid-run).").sample(s.met.cancelled.Load())
	family(w, "ptestd_jobs_running", "gauge", "Jobs currently executing.").sample(running)
	family(w, "ptestd_queue_depth", "gauge", "Jobs waiting on the priority queue.").sample(s.queue.Depth())
	family(w, "ptestd_uptime_seconds", "gauge", "Seconds since the daemon started.").sample(int64(time.Since(s.started).Seconds()))
	family(w, "ptestd_cells_executed_total", "counter", "Store misses of finished jobs; jobs that miss one cell at once share its execution.").sample(s.met.cellsExecuted.Load())
	family(w, "ptestd_cells_cached_total", "counter", "Cells served from the store.").sample(s.met.cellsCached.Load())

	family(w, "ptestd_store_hits_total", "counter", "Store lookups answered from cache.").sample(st.Hits)
	family(w, "ptestd_store_misses_total", "counter", "Store lookups that missed.").sample(st.Misses)
	family(w, "ptestd_store_puts_total", "counter", "Cells inserted into the store.").sample(st.Puts)
	family(w, "ptestd_store_syncs_total", "counter", "Segment-log fsyncs (one per flush of a run's puts, one per whole batch).").sample(st.Syncs)
	family(w, "ptestd_store_mem_entries", "gauge", "Cells in the in-memory LRU front.").sample(st.MemEntries)
	family(w, "ptestd_store_disk_entries", "gauge", "Cells indexed in the segment log.").sample(st.DiskEntries)

	// Optional store faces: the local segment-log store reports how many
	// bytes a compaction would reclaim and whether its disk layer died.
	if rc, ok := s.store.(interface{ Reclaimable() int64 }); ok {
		family(w, "ptestd_store_reclaimable_bytes", "gauge", "Dead segment bytes a compaction pass would free.").sample(rc.Reclaimable())
	}
	if dg, ok := s.store.(interface{ Degraded() bool }); ok {
		v := 0
		if dg.Degraded() {
			v = 1
		}
		family(w, "ptestd_store_degraded", "gauge", "1 when the store's disk layer died and it serves memory-only.").sample(v)
	}

	dm := s.disp.Metrics()
	family(w, "ptestd_workers_live", "gauge", "Fleet workers currently registered and live.").sample(dm.WorkersLive)
	family(w, "ptestd_workers_registered_total", "counter", "Worker registrations ever.").sample(dm.WorkersRegistered)
	family(w, "ptestd_dispatch_leases_granted_total", "counter", "Cell leases granted to workers.").sample(dm.LeasesGranted)
	family(w, "ptestd_dispatch_leases_expired_total", "counter", "Leases that expired (deadline or dead worker).").sample(dm.LeasesExpired)
	family(w, "ptestd_dispatch_leases_stolen_total", "counter", "Redundant straggler leases granted to idle workers.").sample(dm.LeasesStolen)
	family(w, "ptestd_dispatch_lease_retries_total", "counter", "Cells requeued after a lease expiry.").sample(dm.LeaseRetries)
	family(w, "ptestd_dispatch_completions_remote_total", "counter", "Cell completions accepted from workers.").sample(dm.RemoteCompletions)
	family(w, "ptestd_dispatch_completions_duplicate_total", "counter", "Completions dropped because a first writer won.").sample(dm.DuplicateCompletions)
	family(w, "ptestd_dispatch_completions_orphan_total", "counter", "Completions for cells no longer tracked.").sample(dm.OrphanCompletions)
	family(w, "ptestd_dispatch_cells_local_total", "counter", "Cells executed on hub slots (no fleet, or budget exhausted).").sample(dm.LocalCells)
	family(w, "ptestd_dispatch_cells_pending", "gauge", "Cells waiting at the hub for a lease grant.").sample(dm.CellsPending)
	// lease_batch_cells/lease_batch_calls is the live batching factor.
	family(w, "ptestd_dispatch_lease_batch_calls_total", "counter", "lease:batch round trips that granted cells or settled completions.").sample(dm.LeaseBatchCalls)
	family(w, "ptestd_dispatch_lease_batch_cells_total", "counter", "Cells granted inside lease:batch responses.").sample(dm.LeaseBatchCells)
	family(w, "ptestd_dispatch_completions_piggybacked_total", "counter", "Completions carried inside lease:batch requests.").sample(dm.PiggybackedCompletions)
	family(w, "ptestd_spec_requests_total", "counter", "Job spec fetches by worker plan-cache misses (once per job per worker).").sample(s.met.specWireGet.Load())
	family(w, "ptestd_auth_rejected_total", "counter", "Requests refused for a missing or unknown API key.").sample(s.guard.AuthFailures())

	// Per-tenant quota accounting: one family at a time (the format
	// requires a family's samples contiguous), name-ordered per family
	// so scrapes are stable.
	snap := s.guard.Snapshot()
	if len(snap) > 0 {
		f := family(w, "ptestd_tenant_requests_total", "counter", "Authenticated API requests per tenant.")
		for _, ts := range snap {
			f.with(ts.Requests, "tenant", ts.Name)
		}
		f = family(w, "ptestd_tenant_throttled_total", "counter", "Requests throttled by a tenant rate limit.")
		for _, ts := range snap {
			f.with(ts.Throttled, "tenant", ts.Name)
		}
		f = family(w, "ptestd_tenant_rejected_total", "counter", "Submissions rejected by a tenant backlog quota.")
		for _, ts := range snap {
			f.with(ts.Rejected, "tenant", ts.Name)
		}
		f = family(w, "ptestd_tenant_deferrals_total", "counter", "Dequeue scans that skipped a tenant at its in-flight cap.")
		for _, ts := range snap {
			f.with(ts.Deferrals, "tenant", ts.Name)
		}
		f = family(w, "ptestd_tenant_jobs_inflight", "gauge", "Jobs currently running per tenant.")
		for _, ts := range snap {
			f.with(ts.InFlight, "tenant", ts.Name)
		}
	}
	if len(dm.LeasesByTenant) > 0 {
		tenants := make([]string, 0, len(dm.LeasesByTenant))
		for name := range dm.LeasesByTenant {
			tenants = append(tenants, name)
		}
		sort.Strings(tenants)
		f := family(w, "ptestd_dispatch_leases_by_tenant", "gauge", "Outstanding leases per submitting tenant.")
		for _, name := range tenants {
			f.with(dm.LeasesByTenant[name], "tenant", name)
		}
	}

	// Per-worker liveness and throughput, labeled by assigned id and
	// self-reported name (already id-ordered).
	if workers := s.disp.Workers(); len(workers) > 0 {
		f := family(w, "ptestd_worker_inflight", "gauge", "Leases currently held per worker.")
		for _, wi := range workers {
			f.with(wi.InFlight, "worker", wi.ID, "name", wi.Name)
		}
		f = family(w, "ptestd_worker_completed_total", "counter", "Cells completed per worker.")
		for _, wi := range workers {
			f.with(wi.Completed, "worker", wi.ID, "name", wi.Name)
		}
		f = family(w, "ptestd_worker_lease_batch", "gauge", "Grant count of each worker's most recent lease:batch call that granted cells (0 = none yet).")
		for _, wi := range workers {
			f.with(wi.LastBatch, "worker", wi.ID, "name", wi.Name)
		}
	}

	// Per-tool bug detection, folded from every finished report.
	s.met.toolMu.Lock()
	tools := make([]string, 0, len(s.met.toolCells))
	for name := range s.met.toolCells {
		tools = append(tools, name)
	}
	sort.Strings(tools)
	if len(tools) > 0 {
		f := family(w, "ptestd_tool_cells_total", "counter", "Cells finished per tool label.")
		for _, name := range tools {
			f.with(s.met.toolCells[name], "tool", name)
		}
		f = family(w, "ptestd_tool_bug_cells_total", "counter", "Cells that detected at least one bug, per tool label.")
		for _, name := range tools {
			f.with(s.met.toolBugCells[name], "tool", name)
		}
	}
	s.met.toolMu.Unlock()

	// Event-log health: how much the ring has seen and shed.
	if s.events != nil {
		est := s.events.Stats()
		family(w, "ptestd_events_emitted_total", "counter", "Events emitted into the fleet event log.").sample(est.Emitted)
		family(w, "ptestd_events_dropped_total", "counter", "Events evicted from the bounded ring by overflow.").sample(est.Dropped)
		types := make([]string, 0, len(est.ByType))
		for t := range est.ByType {
			types = append(types, t)
		}
		sort.Strings(types)
		f := family(w, "ptestd_events_total", "counter", "Events emitted per type.")
		for _, t := range types {
			f.with(est.ByType[t], "type", t)
		}
	}
}
