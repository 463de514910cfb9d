package main

import (
	"fmt"
	"time"

	"repro/internal/pcore"
	"repro/internal/pfa"
	"repro/internal/stats"
	"repro/internal/suite"
)

// probes are microbenchmarks of single public calls that no workload
// traffic isolates. A traced run takes them after its traced phase.
type probes struct {
	switchNS   float64
	svcNS      map[string]float64
	generateUS float64
	expandUS   float64
	cellKeyUS  float64
}

// svcNames are the Table I kernel services, in the paper's order.
var svcNames = []string{"TC", "TD", "TS", "TR", "TCH", "TY"}

const probeReps = 500

// runProbes measures the probes; spec is the workload's job spec.
func runProbes(spec *suite.Spec, seed uint64) (probes, error) {
	p := probes{svcNS: map[string]float64{}}
	var err error
	if p.switchNS, err = probeSwitch(); err != nil {
		return p, err
	}
	for _, s := range svcNames {
		if p.svcNS[s], err = probeService(pcore.Service(s)); err != nil {
			return p, fmt.Errorf("probe %s: %w", s, err)
		}
	}
	machine, err := pfa.Compile(pfa.PCoreRE, pfa.PCoreDistribution())
	if err != nil {
		return p, err
	}
	rng := stats.New(seed)
	var gen []float64
	for i := 0; i < probeReps; i++ {
		t0 := time.Now()
		if _, err := machine.Generate(rng, 16, pfa.DefaultGenOptions()); err != nil {
			return p, err
		}
		gen = append(gen, us(time.Since(t0)))
	}
	p.generateUS = median(gen)

	var expand, keys []float64
	cells := spec.Expand()
	for i := 0; i < probeReps; i++ {
		t0 := time.Now()
		cells = spec.Expand()
		expand = append(expand, us(time.Since(t0)))
		c := cells[i%len(cells)]
		t0 = time.Now()
		_ = spec.CellKey(c)
		keys = append(keys, us(time.Since(t0)))
	}
	p.expandUS, p.cellKeyUS = median(expand), median(keys)
	return p, nil
}

// probeSwitch runs eight tasks that each yield 2000 times and returns
// the host time per kernel step: one simulated context switch plus its
// yield system call.
func probeSwitch() (float64, error) {
	var perStep []float64
	for rep := 0; rep < 5; rep++ {
		k := pcore.New(pcore.Config{})
		for t := 0; t < 8; t++ {
			if _, err := k.CreateTask("yield", 5, func(c *pcore.Ctx) {
				for i := 0; i < 2000; i++ {
					c.Yield()
				}
			}); err != nil {
				k.Shutdown()
				return 0, err
			}
		}
		t0 := time.Now()
		steps := k.RunUntilIdle(1 << 30)
		perStep = append(perStep, float64(time.Since(t0))/float64(max(steps, 1)))
		k.Shutdown()
	}
	return median(perStep), nil
}

// probeService times one Table I service on a live kernel: each
// repetition prepares a fresh victim task untimed and times only the
// service call itself.
func probeService(svc pcore.Service) (float64, error) {
	k := pcore.New(pcore.Config{})
	defer k.Shutdown()
	spin := func(c *pcore.Ctx) {
		for {
			c.Yield()
		}
	}
	var ns []float64
	for i := 0; i < probeReps; i++ {
		var id pcore.TaskID
		var err error
		if svc != pcore.SvcTaskCreate {
			if id, err = k.CreateTask("victim", 5, spin); err != nil {
				return 0, err
			}
			if svc == pcore.SvcTaskResume {
				if err := k.SuspendTask(id); err != nil {
					return 0, err
				}
			}
		}
		t0 := time.Now()
		switch svc {
		case pcore.SvcTaskCreate:
			id, err = k.CreateTask("victim", 5, spin)
		case pcore.SvcTaskDelete:
			err = k.DeleteTask(id)
		case pcore.SvcTaskSuspend:
			err = k.SuspendTask(id)
		case pcore.SvcTaskResume:
			err = k.ResumeTask(id)
		case pcore.SvcTaskChanprio:
			err = k.ChangePriority(id, pcore.Priority(2+i%20))
		case pcore.SvcTaskYield:
			err = k.TerminateTask(id)
		}
		ns = append(ns, float64(time.Since(t0)))
		if err != nil {
			return 0, err
		}
		switch svc {
		case pcore.SvcTaskCreate, pcore.SvcTaskChanprio:
			err = k.DeleteTask(id)
		case pcore.SvcTaskSuspend:
			if err = k.ResumeTask(id); err == nil {
				err = k.DeleteTask(id)
			}
		case pcore.SvcTaskResume:
			err = k.DeleteTask(id)
		}
		if err != nil {
			return 0, err
		}
	}
	return median(ns), nil
}
