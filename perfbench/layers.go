package main

import (
	"fmt"
	"strings"

	"repro/internal/report"
	"repro/internal/store"
)

// toolLabels are the tool arms the workloads run, by report label.
var toolLabels = []string{"adaptive", "adaptive-refine", "contest", "chess", "pct"}

// selfLayers are the layers a traced phase charges self time to.
var selfLayers = []string{"client", "server", "wait", "store", "dispatch", "tool"}

// execRecord is one cell a traced phase executed (not served from the
// store): its tool label, host time and campaign summary.
type execRecord struct {
	tool string
	ms   float64
	sum  report.CampaignSummary
}

// tracedPhase is everything a traced phase measured.
type tracedPhase struct {
	// jobs are the traced jobs' latencies in ms; untracedP50 is the
	// median of the untraced phase of the same run.
	jobs        []float64
	untracedP50 float64
	// cells the phase completed; execs the cells it executed.
	cells int
	execs []execRecord
	// execOnWorker says execs come from reports of cells a fleet worker
	// ran, not from spans around suite.ExecuteCell.
	execOnWorker bool
	spans        []span
	// firstCycles is the simulated cycle total of the phase's first job,
	// which the seed fixes exactly.
	firstCycles uint64
	// pfaCompiles sums the reports' PFA construction counts.
	pfaCompiles uint64
	// reportBytes is each job's canonical report size.
	reportBytes []float64
	// waitMS sums, per job, its latency minus the host time of the cells
	// it executed.
	waitMS float64
	// storeDelta and promDelta are the hub store's counters and the hub's
	// /metrics samples, after minus before the phase.
	storeDelta store.Stats
	promDelta  map[string]float64
}

// layerNames are the per-layer metrics every traced run reports.
func layerNames() []string {
	var names []string
	for _, r := range layerRows(tracedPhase{}, probes{}) {
		names = append(names, r.name)
	}
	return names
}

// layerRows turns a traced phase and the probes into the per-layer
// metrics. Counts are per job, so runs of different lengths compare.
func layerRows(t tracedPhase, p probes) []row {
	jobs := float64(len(t.jobs))
	perJob := func(x float64) float64 { return ratio(x, jobs) }
	n := func(k int) string { return fmt.Sprintf("n=%d", k) }
	var rows []row
	add := func(name string, v float64, unit, note string) { rows = append(rows, row{name, v, unit, note}) }

	// internal/pcore
	var cycles, execMS, cmds, cmdMS float64
	toolCycles, toolMS, toolTrials := map[string]float64{}, map[string]float64{}, map[string]float64{}
	for _, e := range t.execs {
		c := float64(e.sum.TotalCycles)
		cycles += c
		execMS += e.ms
		toolCycles[e.tool] += c
		toolMS[e.tool] += e.ms
		toolTrials[e.tool] += float64(e.sum.Trials)
		if e.sum.TotalCommands > 0 {
			cmds += float64(e.sum.TotalCommands)
			cmdMS += e.ms
		}
	}
	add("pcore.sim_cycles", float64(t.firstCycles), "cycles", "first job of the phase")
	add("pcore.host_ns_per_sim_cycle", ratio(execMS*1e6, cycles), "ns", n(len(t.execs))+" executed cells")
	for _, l := range toolLabels {
		add("pcore.host_ns_per_sim_cycle."+l, ratio(toolMS[l]*1e6, toolCycles[l]), "ns", "")
	}
	add("pcore.switch_ns", p.switchNS, "ns", "probe: yielding tasks, host ns per kernel step")
	for _, s := range svcNames {
		add("pcore.svc_ns."+s, p.svcNS[s], "ns", "probe: median of one service call")
	}

	// internal/tool + internal/core
	for _, l := range toolLabels {
		add("tool."+l+".exec_ms", perJob(toolMS[l]), "ms", "per job")
		add("tool."+l+".share", ratio(toolMS[l], execMS), "ratio", "of executed host time")
		add("tool."+l+".trials", perJob(toolTrials[l]), "count", "per job")
	}
	add("core.commands", perJob(cmds), "count", "per job")
	add("core.host_us_per_command", ratio(cmdMS*1e3, cmds), "us", "cells that issue commands")

	// internal/pfa + internal/suite
	add("pfa.compiles", perJob(float64(t.pfaCompiles)), "count", "per job, from the reports")
	add("pfa.generate_us", p.generateUS, "us", "probe: one pattern of the pCore PFA")
	add("suite.expand_us", p.expandUS, "us", "probe: expand the workload's spec")
	add("suite.cellkey_us", p.cellKeyUS, "us", "probe: one cell key")

	// internal/store
	spansNamed := func(name string) []float64 {
		var d []float64
		for _, s := range t.spans {
			if s.Name == name {
				d = append(d, s.dur())
			}
		}
		return d
	}
	gets, puts := spansNamed("store.get"), spansNamed("store.put")
	add("store.get.calls", perJob(float64(len(gets))), "count", "per job")
	rows = append(rows, medianRow("store.get_us.p50", "us", gets), tailRow("store.get_us.p99", "us", gets, 0.99))
	st := t.storeDelta
	add("store.hit_ratio", ratio(float64(st.Hits), float64(st.Hits+st.Misses)), "ratio", n(int(st.Hits+st.Misses))+" lookups")
	add("store.put.calls", perJob(float64(len(puts))), "count", "per job")
	rows = append(rows, medianRow("store.put_us.p50", "us", puts), tailRow("store.put_us.p99", "us", puts, 0.99))
	add("store.syncs_per_put", ratio(float64(st.Syncs), float64(st.Puts)), "ratio", n(int(st.Puts))+" puts")

	// internal/dispatch
	var leases []float64
	var grants, empty, wire float64
	for _, s := range t.spans {
		if !strings.HasPrefix(s.Name, "dispatch.") {
			continue
		}
		wire++
		if s.Name == "dispatch.lease_batch" {
			leases = append(leases, s.dur()/1e3)
			grants += float64(s.Grants)
			if s.Grants == 0 {
				empty++
			}
		}
	}
	add("dispatch.lease_batch.calls", perJob(float64(len(leases))), "count", "per job")
	rows = append(rows, medianRow("dispatch.lease_batch_ms.p50", "ms", leases))
	add("dispatch.grants_per_call", ratio(grants, float64(len(leases))), "count", "")
	add("dispatch.empty_poll_ratio", ratio(empty, float64(len(leases))), "ratio", "lease:batch calls granting nothing")
	add("dispatch.roundtrips_per_cell", ratio(wire, float64(t.cells)), "count", "worker requests of every route per completed cell")
	add("dispatch.spec_fetches", perJob(t.promDelta["ptestd_spec_requests_total"]), "count", "per job, from /metrics")
	add("dispatch.wait_ms_per_cell", ratio(t.waitMS, float64(t.cells)), "ms", "job latency minus executed cell time")

	// internal/server
	clientP50 := func(name string) row {
		var d []float64
		for _, s := range t.spans {
			if s.Name == name && s.Parent != 0 {
				d = append(d, s.dur()/1e3)
			}
		}
		return medianRow("server."+strings.TrimPrefix(name, "client.")+"_ms.p50", "ms", d)
	}
	rows = append(rows, clientP50("client.submit"))
	watch := clientP50("client.events")
	watch.name = "server.watch_ms.p50"
	rows = append(rows, watch, clientP50("client.report"))
	add("server.report_bytes", ratio(sum(t.reportBytes), float64(len(t.reportBytes))), "bytes", "canonical report, mean")
	for _, r := range routes {
		d := spansNamed("server." + r)
		add("server.route."+r+".calls", perJob(float64(len(d))), "count", "per job")
		add("server.route."+r+".service_ms", ratio(sum(d)/1e3, float64(len(d))), "ms", "mean, "+n(len(d)))
	}

	// Self time per layer, and what tracing cost.
	self := selfTimes(t.spans)
	if t.execOnWorker {
		// The worker ran these cells where no span reaches; charge their
		// reported host time to the tool layer instead of to the wait
		// the event stream saw.
		self["tool"] += execMS * 1e3
		self["wait"] = max(0, self["wait"]-execMS*1e3)
	}
	for _, l := range selfLayers {
		add("self_ms_per_job."+l, perJob(self[l]/1e3), "ms", "span time minus child spans")
	}
	overhead := 0.0
	if t.untracedP50 > 0 && len(t.jobs) > 0 {
		overhead = median(t.jobs)/t.untracedP50 - 1
	}
	add("trace.overhead", overhead, "ratio", fmt.Sprintf("traced over untraced job p50 (%.3f ms), minus 1", t.untracedP50))
	return rows
}

// storeDelta is after minus before for the counters a phase moves.
func storeDelta(before, after store.Stats) store.Stats {
	return store.Stats{
		Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses,
		Puts: after.Puts - before.Puts, Syncs: after.Syncs - before.Syncs,
	}
}
