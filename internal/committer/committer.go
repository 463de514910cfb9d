// Package committer implements pTest's master-side command issuer: a
// master thread that walks the merged test pattern and issues each entry
// as a remote command over the bridge, recording a Definition 2 state
// record per command. It corresponds to the "Committer" box of the
// paper's Figure 2.
package committer

import (
	"repro/internal/bridge"
	"repro/internal/clock"
	"repro/internal/master"
	"repro/internal/pattern"
	"repro/internal/pcore"
	"repro/internal/recording"
)

// PriorityPolicy picks the priority argument for TC and TCH commands of a
// logical task (the PFA alphabet carries no arguments, so the committer
// supplies them deterministically).
type PriorityPolicy func(task, seq int) pcore.Priority

// DefaultPriorityPolicy assigns each logical task the unique priority
// 2+task for TC (the paper forks each task "with a unique priority") and
// rotates within a band for TCH.
func DefaultPriorityPolicy(task, seq int) pcore.Priority {
	return pcore.Priority(2 + (task+seq)%(pcore.NumPriorities-2)) // keep 0,1 for system use
}

// Committer issues a merged pattern over a bridge client.
type Committer struct {
	client  *bridge.Client
	merged  pattern.Merged
	perTask [][]string
	policy  PriorityPolicy
	journal *recording.Journal
	now     func() clock.Cycles

	// Gap is the master-side administrative delay (cycles) between
	// consecutive commands. It sets the stress density: a small gap
	// bombards the slave faster than its tasks can run; a larger gap
	// lets the slave execute between perturbations. Default 10.
	Gap int

	// issued counts completed commands: merged.Entries[:issued] have
	// been issued, in order. statuses counts their reply statuses.
	issued   int
	statuses [bridge.StatusCrashed + 1]int

	Finished bool
	Aborted  bool // stopped early on a crashed/mute slave
}

// New creates a committer for the merged pattern. perTask holds each
// logical task's own sequence, the records' TP, as merged.PerTask()
// returns it; a caller that merged the pattern from its sources passes
// those, so that no trial rebuilds them. journal may be nil to skip
// state recording; now supplies platform virtual time for records (nil
// uses zero).
func New(client *bridge.Client, merged pattern.Merged, perTask [][]string, policy PriorityPolicy,
	journal *recording.Journal, now func() clock.Cycles) *Committer {
	if policy == nil {
		policy = DefaultPriorityPolicy
	}
	if now == nil {
		now = func() clock.Cycles { return 0 }
	}
	return &Committer{
		client:  client,
		merged:  merged,
		perTask: perTask,
		policy:  policy,
		journal: journal,
		now:     now,
		Gap:     10,
	}
}

// Merged returns the pattern being issued.
func (c *Committer) Merged() pattern.Merged { return c.merged }

// Progress returns the number of commands completed so far: the first
// Progress() entries of the merged pattern, unknown symbols included.
func (c *Committer) Progress() int { return c.issued }

// ThreadBody is the master-thread entry: issue every entry of the merged
// pattern in order, blocking on each reply. If the slave dies the RPC
// never returns and the thread stays parked — the bug detector owns the
// timeout; the platform's shutdown unwinds the thread.
func (c *Committer) ThreadBody(ctx *master.Ctx) {
	for _, e := range c.merged.Entries {
		code, ok := bridge.CodeOf(e.Symbol)
		if !ok {
			// Unknown symbol in the pattern: record and skip.
			c.tally(bridge.StatusBadRequest)
			continue
		}
		arg1 := uint32(0xffffffff)
		if code == bridge.CodeTC || code == bridge.CodeTCH {
			arg1 = uint32(c.policy(e.Task, e.Seq))
		}
		rep, err := c.client.Call(ctx, code, uint32(e.Task), arg1)
		if err != nil {
			c.Aborted = true
			return
		}
		c.tally(rep.Status)
		c.record(e, pcore.State(rep.Value), code)
		// The administrative delay between commands sets the stress
		// density; see Gap.
		ctx.Compute(c.Gap)
	}
	c.Finished = true
}

// tally counts one issued command and its reply status. Replies
// carry only the statuses the committee writes, so every status has a
// slot.
func (c *Committer) tally(st bridge.Status) {
	c.issued++
	if int(st) < len(c.statuses) {
		c.statuses[st]++
	}
}

// issueLabels holds each service's Definition 2 master state, "issue:"
// and its symbol, built once instead of once per recorded command.
var issueLabels = func() (labels [bridge.CodeTY + 1]string) {
	for code := bridge.CodeTC; code <= bridge.CodeTY; code++ {
		labels[code] = "issue:" + code.String()
	}
	return labels
}()

// record appends the Definition 2 five-tuple for entry e, completed
// with the slave task in state qs after being issued as code.
func (c *Committer) record(e pattern.Entry, qs pcore.State, code bridge.ServiceCode) {
	if c.journal == nil {
		return
	}
	tp := c.perTask[e.Task]
	sn := e.Seq + 1 // 1-based, as in Figure 4
	rec := recording.Record{
		QM:  issueLabels[code],
		QS:  qs.String(),
		TP:  tp,
		SN:  sn,
		Sub: recording.Remaining(tp, sn),
	}
	c.journal.Append(uint64(c.now()), e.Task, rec)
}

// StatusCounts aggregates reply statuses, for reports.
func (c *Committer) StatusCounts() map[bridge.Status]int {
	out := make(map[bridge.Status]int, 4) // a run rarely sees more than a few distinct statuses
	for st, n := range c.statuses {
		if n > 0 {
			out[bridge.Status(st)] = n
		}
	}
	return out
}
