// Package platform assembles the full simulated master–slave system: the
// SoC model, the pCore slave kernel, the master OS, the bridge and the
// committee, and drives them in a deterministic co-simulation loop. It is
// the "Multi-Core System" of the paper's Figure 2, in one object.
package platform

import (
	"repro/internal/bridge"
	"repro/internal/clock"
	"repro/internal/committee"
	"repro/internal/hw"
	"repro/internal/interrupt"
	"repro/internal/master"
	"repro/internal/pcore"
)

// Config assembles a platform; zero values take defaults throughout.
type Config struct {
	HW      hw.Config
	Kernel  pcore.Config
	Slots   int // bridge descriptor ring depth
	Factory committee.Factory
}

// Platform is the co-simulated dual-core system.
type Platform struct {
	SoC       *hw.SoC
	Slave     *pcore.Kernel
	Master    *master.OS
	Hub       *bridge.Hub
	Client    *bridge.Client
	Committee *committee.Committee

	steps uint64
	// Per-core local virtual times. The co-simulation always advances the
	// core that lags, so one wall of master computation buys the slave a
	// proportional number of kernel events — time-balanced lockstep, not
	// event-balanced alternation. Idle cores drift up to the runner's
	// time (a sleeping core consumes time doing nothing).
	slaveT  clock.Cycles
	masterT clock.Cycles
}

// New builds and wires a platform. The factory may be nil if no TC
// commands will be issued (e.g. pure slave-side workloads).
func New(cfg Config) (*Platform, error) {
	soc := hw.New(cfg.HW)
	hub, err := bridge.NewHub(soc, cfg.Slots)
	if err != nil {
		return nil, err
	}
	slave := pcore.New(cfg.Kernel)
	mstr := master.New()
	client := bridge.NewClient(hub, mstr)
	factory := cfg.Factory
	if factory == nil {
		factory = func(logical uint32) committee.CreateSpec {
			return committee.CreateSpec{
				Name: "idle",
				Prio: 5,
				Entry: func(c *pcore.Ctx) {
					for {
						c.Yield()
					}
				},
			}
		}
	}
	cmte := committee.New(hub, slave, factory)
	p := &Platform{
		SoC:       soc,
		Slave:     slave,
		Master:    mstr,
		Hub:       hub,
		Client:    client,
		Committee: cmte,
	}
	// Interrupt wiring: command doorbells drive the committee, reply
	// doorbells drive the client's reply pump.
	soc.DspIRQ.Handle(interrupt.LineMailboxCmd, func() { cmte.Poll() })
	soc.ArmIRQ.Handle(interrupt.LineMailboxReply, func() { client.PumpReplies() })
	return p, nil
}

// Now returns the platform virtual time.
func (p *Platform) Now() clock.Cycles { return p.SoC.Clock.Now() }

// Steps returns the number of co-simulation steps taken.
func (p *Platform) Steps() uint64 { return p.steps }

// Step performs one co-simulation round: dispatch both cores' pending
// interrupts (serving remote commands and delivering replies), run one
// kernel event on whichever core lags in virtual time, and fire platform
// events (mailbox deliveries) up to the conservative frontier
// min(slaveT, masterT). It returns false when the whole platform is
// quiescent — every component idle and no event pending — which means
// the run is either complete or stuck (the bug detector tells which).
func (p *Platform) Step() bool {
	p.steps++
	progress := false

	// Interrupt delivery and committee service on both sides.
	if p.SoC.DspIRQ.Dispatch() > 0 {
		progress = true
	}
	if p.Committee.Poll() > 0 {
		progress = true
	}
	if p.SoC.ArmIRQ.Dispatch() > 0 {
		progress = true
	}

	// Charge slave-side service cycles (committee work runs on the DSP).
	if c := p.Slave.Cycles(); c > p.slaveT {
		p.slaveT = c
	}

	// Run the lagging runnable core for one kernel event.
	slaveIdle := p.Slave.Idle() || p.Slave.Crashed()
	masterIdle := !p.Master.Ready()
	switch {
	case slaveIdle && masterIdle:
		// Nothing runnable on either core.
	case masterIdle || (!slaveIdle && p.slaveT <= p.masterT):
		if cost, ran := p.Slave.Step(); ran {
			p.slaveT += cost
			progress = true
		}
	default:
		if cost, ran := p.Master.Step(); ran {
			p.masterT += cost
			progress = true
		}
	}

	// Idle cores sleep forward to the runner's time.
	slaveIdle = p.Slave.Idle() || p.Slave.Crashed()
	masterIdle = !p.Master.Ready()
	if slaveIdle && p.slaveT < p.masterT {
		p.slaveT = p.masterT
	}
	if masterIdle && p.masterT < p.slaveT {
		p.masterT = p.slaveT
	}

	// Fire events up to the conservative frontier.
	frontier := p.slaveT
	if p.masterT < frontier {
		frontier = p.masterT
	}
	if frontier > p.SoC.Clock.Now() {
		p.SoC.Clock.RunUntil(frontier)
		progress = true
	}
	if progress {
		return true
	}
	// Both cores idle with no progress: if an event is still pending
	// (e.g. an in-flight mailbox delivery), sleep both cores to it.
	if next, ok := p.SoC.Clock.NextDue(); ok {
		if next > p.slaveT {
			p.slaveT = next
		}
		if next > p.masterT {
			p.masterT = next
		}
		p.SoC.Clock.RunUntil(next)
		return true
	}
	return false
}

// RunUntilQuiescent steps until quiescence or maxSteps, returning the
// number of steps taken.
func (p *Platform) RunUntilQuiescent(maxSteps int) int {
	n := 0
	for n < maxSteps {
		if !p.Step() {
			break
		}
		n++
	}
	return n
}

// Quiescent reports whether a Step would make no progress, without
// stepping.
func (p *Platform) Quiescent() bool {
	if p.Slave.Crashed() {
		// A crashed slave cannot run, but the master may still be going.
		if p.Master.Ready() {
			return false
		}
		_, pending := p.SoC.Clock.NextDue()
		return !pending && !p.SoC.ArmIRQ.AnyPending()
	}
	if !p.Slave.Idle() || p.Master.Ready() {
		return false
	}
	if p.SoC.DspIRQ.AnyPending() || p.SoC.ArmIRQ.AnyPending() {
		return false
	}
	if _, pending := p.SoC.Clock.NextDue(); pending {
		return false
	}
	return p.SoC.Boxes.ArmToDspCmd.Len() == 0 && p.SoC.Boxes.DspToArmReply.Len() == 0
}

// Shutdown tears down both kernels, unwinding every task and thread body.
func (p *Platform) Shutdown() {
	p.Master.Shutdown()
	p.Slave.Shutdown()
}
