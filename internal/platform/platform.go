// Package platform assembles the full simulated master–slave system: the
// SoC model, the pCore slave kernel, the master OS, the bridge and the
// committee, and drives them in a deterministic co-simulation loop. It is
// the "Multi-Core System" of the paper's Figure 2, in one object.
//
// The loop (Run) is resumable: it keeps its state in the Platform, so
// whichever stack holds control can take the next step. A task or
// thread body that posts a request completes its own step and carries
// on with the loop on its own stack; it yields only when the loop
// dispatches a different body, and the caller of Run resumes that one.
// Most steps re-dispatch the body that has just yielded, and those cost
// no coroutine switch at all.
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

	steps    uint64
	progress bool     // the current step has made progress so far
	run      runState // the active Run's state
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
	p.run.slaveDone = func() { p.handoff(coreSlave) }
	p.run.masterDone = func() { p.handoff(coreMaster) }
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

// core names the core whose body a step runs.
type core uint8

const (
	coreNone core = iota
	coreSlave
	coreMaster
)

// Step performs one co-simulation round: dispatch both cores' pending
// interrupts (serving remote commands and delivering replies), run one
// kernel event on whichever core lags in virtual time, and fire platform
// events (mailbox deliveries) up to the conservative frontier
// min(slaveT, masterT). It returns false when the whole platform is
// quiescent — every component idle and no event pending — which means
// the run is either complete or stuck (the bug detector tells which).
// Step is one round of the same halves Run uses, with no handoff: the
// body yields straight back. It must not be called while Run is active.
func (p *Platform) Step() bool {
	c := p.begin()
	p.resume(c)
	return p.end(c)
}

// begin is the first half of a step: interrupt delivery, committee
// service, and the dispatch of one body on the lagging runnable core.
// It returns that core, or coreNone when no body runs this step.
func (p *Platform) begin() core {
	p.steps++
	p.progress = false

	// Interrupt delivery and committee service on both sides.
	if p.SoC.DspIRQ.Dispatch() > 0 {
		p.progress = true
	}
	if p.Committee.Poll() > 0 {
		p.progress = true
	}
	if p.SoC.ArmIRQ.Dispatch() > 0 {
		p.progress = true
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
		if p.Slave.Dispatch() {
			return coreSlave
		}
	default:
		if p.Master.Dispatch() {
			return coreMaster
		}
	}
	return coreNone
}

// resume runs the body dispatched on core c.
func (p *Platform) resume(c core) {
	switch c {
	case coreSlave:
		p.Slave.Resume()
	case coreMaster:
		p.Master.Resume()
	}
}

// end is the second half of a step: it completes the request of the
// body that ran on core c, lets idle cores sleep forward and fires
// events up to the frontier. It returns Step's result.
func (p *Platform) end(c core) bool {
	switch c {
	case coreSlave:
		p.slaveT += p.Slave.Complete()
		p.progress = true
	case coreMaster:
		p.masterT += p.Master.Complete()
		p.progress = true
	}

	// Idle cores sleep forward to the runner's time.
	slaveIdle := p.Slave.Idle() || p.Slave.Crashed()
	masterIdle := !p.Master.Ready()
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
		p.progress = true
	}
	if p.progress {
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

// runState is the state of an active Run, kept in the Platform so that the
// stack of whichever body holds control can continue it.
type runState struct {
	max, n  int                   // step budget and steps taken
	each    func(alive bool) bool // per-step callback; true stops the run
	stopped bool                  // each stopped the run
	next    core                  // core whose dispatched body awaits resume

	// The handoff hooks installed on the kernels, built once.
	slaveDone, masterDone func()
}

// Run drives the platform for up to maxSteps steps. After every step it
// calls each with Step's result; each returns true to stop the run. Run
// reports whether each stopped it (false: the budget ran out).
//
// A body that posts a request completes its step on its own stack (the
// kernels' handoff hooks) and runs the loop on from there: each, the
// committee, the interrupt handlers and the clock callbacks all run on
// whichever stack holds control. When the loop dispatches the body that
// is running it, the body just carries on. Otherwise the body yields and
// Run resumes the dispatched one. A panic raised by that host code
// leaves Run as it would from a plain loop of Step; a task or thread
// that is killed while its own stack runs the loop unwinds at the
// handoff. Run is not reentrant, and each must not call Step.
func (p *Platform) Run(maxSteps int, each func(alive bool) bool) bool {
	p.run.max, p.run.n, p.run.each, p.run.stopped = maxSteps, 0, each, false
	p.Slave.SetHandoff(p.run.slaveDone)
	p.Master.SetHandoff(p.run.masterDone)
	defer func() {
		p.Slave.SetHandoff(nil)
		p.Master.SetHandoff(nil)
		p.run.each = nil
	}()
	for c := p.advance(); c != coreNone; c = p.run.next {
		p.resume(c)
	}
	return p.run.stopped
}

// advance takes the steps that run no body, then begins the next step
// that does and returns its core. It returns coreNone once the run is
// over.
func (p *Platform) advance() core {
	for p.run.n < p.run.max {
		if c := p.begin(); c != coreNone {
			return c
		}
		if p.finish(coreNone) {
			break
		}
	}
	return coreNone
}

// finish ends the current step and reports it to each; it returns true
// when the run is over.
func (p *Platform) finish(c core) bool {
	alive := p.end(c)
	p.run.n++
	if p.run.each(alive) {
		p.run.stopped = true
		return true
	}
	return p.run.n >= p.run.max
}

// handoff runs on the stack of the body on core c that has just posted
// its request: it finishes that step and advances the run. The kernel
// then lets the body carry on if it is the one dispatched next.
func (p *Platform) handoff(c core) {
	p.run.next = coreNone
	if !p.finish(c) {
		p.run.next = p.advance()
	}
}

// RunUntilQuiescent steps until quiescence or maxSteps, returning the
// number of steps taken.
func (p *Platform) RunUntilQuiescent(maxSteps int) int {
	n := 0
	p.Run(maxSteps, func(alive bool) bool {
		if !alive {
			return true
		}
		n++
		return false
	})
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
