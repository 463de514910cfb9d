// Package hw composes the simulated OMAP5912-like SoC: two cores' worth
// of interrupt controllers, the shared SRAM, the four mailboxes and the
// virtual clock, with mailbox posts wired to interrupt lines through a
// configurable delivery latency. Higher layers (pcore, master, bridge)
// see only this package's handles, mirroring how the real middleware sits
// on the memory-mapped hardware.
package hw

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/interrupt"
	"repro/internal/mailbox"
	"repro/internal/sharedmem"
)

// Config sets the platform parameters; zero values take OMAP5912-flavoured
// defaults.
type Config struct {
	// SRAMSize is the shared SRAM capacity in bytes (default 250 KB).
	SRAMSize int
	// MailboxDepth is each mailbox FIFO's capacity (default 4).
	MailboxDepth int
	// MailboxLatency is the virtual-cycle delay between posting a message
	// and the receiving core seeing it (default 20 cycles).
	MailboxLatency clock.Cycles
	// TimerPeriod is the period of each core's timer tick used for
	// time-slicing (default 1000 cycles).
	TimerPeriod clock.Cycles
}

func (c Config) withDefaults() Config {
	if c.SRAMSize <= 0 {
		c.SRAMSize = sharedmem.DefaultSize
	}
	if c.MailboxDepth <= 0 {
		c.MailboxDepth = mailbox.DefaultDepth
	}
	if c.MailboxLatency == 0 {
		c.MailboxLatency = 20
	}
	if c.TimerPeriod == 0 {
		c.TimerPeriod = 1000
	}
	return c
}

// SoC is the simulated system-on-chip.
type SoC struct {
	Cfg    Config
	Clock  *clock.Clock
	SRAM   *sharedmem.Memory
	Boxes  *mailbox.Bank
	ArmIRQ *interrupt.Controller
	DspIRQ *interrupt.Controller
}

// New builds and wires the SoC: each mailbox's notification edge
// schedules, after MailboxLatency cycles, an interrupt raise on the
// receiving core's controller.
func New(cfg Config) *SoC {
	cfg = cfg.withDefaults()
	s := &SoC{
		Cfg:    cfg,
		Clock:  &clock.Clock{},
		SRAM:   sharedmem.New(cfg.SRAMSize),
		Boxes:  mailbox.NewBank(cfg.MailboxDepth),
		ArmIRQ: interrupt.New("arm-irq"),
		DspIRQ: interrupt.New("dsp-irq"),
	}
	wire := func(box *mailbox.Box, ctl *interrupt.Controller, line interrupt.Line) {
		// One raise closure per mailbox, not one per notification.
		raise := func() { ctl.Raise(line) }
		box.OnNotify(func() { s.Clock.Schedule(cfg.MailboxLatency, raise) })
	}
	wire(s.Boxes.ArmToDspCmd, s.DspIRQ, interrupt.LineMailboxCmd)
	wire(s.Boxes.ArmToDspData, s.DspIRQ, interrupt.LineMailboxData)
	wire(s.Boxes.DspToArmReply, s.ArmIRQ, interrupt.LineMailboxReply)
	wire(s.Boxes.DspToArmEvent, s.ArmIRQ, interrupt.LineMailboxEvent)
	return s
}

// Now returns the current virtual time.
func (s *SoC) Now() clock.Cycles { return s.Clock.Now() }

// StartTimers arms the periodic timer interrupt on both cores: every
// TimerPeriod cycles each core's LineTimer is raised. Kernels that want
// hardware time-slicing register a handler; the line is level-triggered,
// so unhandled ticks coalesce harmlessly.
func (s *SoC) StartTimers() {
	var tick func()
	tick = func() {
		s.ArmIRQ.Raise(interrupt.LineTimer)
		s.DspIRQ.Raise(interrupt.LineTimer)
		s.Clock.Schedule(s.Cfg.TimerPeriod, tick)
	}
	s.Clock.Schedule(s.Cfg.TimerPeriod, tick)
}

// Run advances the platform to the given absolute virtual time, firing
// all due events (mailbox deliveries, timers) in order.
func (s *SoC) Run(until clock.Cycles) { s.Clock.RunUntil(until) }

// String summarizes platform state for detector dumps.
func (s *SoC) String() string {
	return fmt.Sprintf("t=%d sram=%d/%d mbox[%s]",
		s.Clock.Now(), s.SRAM.Used(), s.SRAM.Size(), s.Boxes)
}
