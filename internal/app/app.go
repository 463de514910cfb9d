// Package app provides the slave-side workloads the reproduction's
// experiments run on the simulated pCore kernel: the quicksort stress
// tasks of the paper's first case study, the buggy dining-philosophers
// program of the second, the Figure 1 two-flag scenario, and additional
// seeded-fault programs (producer/consumer lost wakeup, priority
// inversion) used by the fault-coverage ablation.
package app

import (
	"fmt"
	"strconv"

	"repro/internal/committee"
	"repro/internal/pcore"
	"repro/internal/stats"
)

// names renders prefix+id, the name of a created task or a fork. The
// ids pCore's 16-slot TCB table holds come from a table built once per
// prefix, so naming a task allocates nothing; a larger id is formatted.
type names struct {
	prefix string
	table  [16]string
}

func newNames(prefix string) *names {
	n := &names{prefix: prefix}
	for i := range n.table {
		n.table[i] = prefix + strconv.Itoa(i)
	}
	return n
}

func (n *names) of(id uint32) string {
	if id < uint32(len(n.table)) {
		return n.table[id]
	}
	return n.prefix + strconv.FormatUint(uint64(id), 10)
}

var (
	spinNames      = newNames("spin-")
	qsortNames     = newNames("qsort-")
	unboundedNames = newNames("qsort-unbounded-")
	philNames      = newNames("phil-")
	forkNames      = newNames("fork-")
)

// SpinFactory returns tasks that loop marking progress and yielding —
// fully controllable through TS/TR/TCH/TD with no application logic.
// All spinners share one priority so that none is starved by design
// (an infinite-loop task at a unique lower priority would never run).
func SpinFactory() committee.Factory {
	return func(logical uint32) committee.CreateSpec {
		return committee.CreateSpec{
			Name: spinNames.of(logical),
			Prio: 5,
			Entry: func(c *pcore.Ctx) {
				for {
					c.Progress()
					c.Yield()
				}
			},
		}
	}
}

// --- Case study 1: quicksort stress tasks --------------------------------

// QuicksortElems is the paper's element count: each task sorts 128
// 2-byte integers within a 512-byte stack.
const QuicksortElems = 128

// QuicksortFactory returns the case-study-1 workload: each created task
// fills a buffer of 128 int16 values from its own seeded generator,
// quicksorts it with explicit stack-frame accounting against the 512-byte
// task stack (smallest-partition-first recursion, the standard embedded
// idiom that bounds depth at log2 n), verifies the result and exits.
func QuicksortFactory(seed uint64) committee.Factory {
	return func(logical uint32) committee.CreateSpec {
		taskSeed := seed ^ (uint64(logical)+1)*0x9e3779b97f4a7c15
		return committee.CreateSpec{
			Name:  qsortNames.of(logical),
			Prio:  pcore.Priority(2 + logical%(pcore.NumPriorities-2)),
			Entry: quicksortEntry(taskSeed),
		}
	}
}

// qsortFrame is the modelled stack frame of one quicksort invocation on
// the C55x: saved registers, two index locals and the return address.
const qsortFrame = 24

func quicksortEntry(seed uint64) func(*pcore.Ctx) {
	return func(c *pcore.Ctx) {
		rng := stats.New(seed)
		data := make([]int16, QuicksortElems)
		for i := range data {
			data[i] = int16(rng.Uint64())
		}
		c.Compute(len(data)) // fill cost
		var sort func(lo, hi int)
		sort = func(lo, hi int) {
			for lo < hi {
				c.StackPush(qsortFrame)
				p := partition(c, data, lo, hi)
				// Recurse into the smaller side, iterate the larger: depth
				// stays logarithmic, fitting the 512-byte stack.
				if p-lo < hi-p {
					sort(lo, p-1)
					lo = p + 1
				} else {
					sort(p+1, hi)
					hi = p - 1
				}
				c.StackPop(qsortFrame)
			}
		}
		sort(0, len(data)-1)
		for i := 1; i < len(data); i++ {
			if data[i-1] > data[i] {
				panic(fmt.Sprintf("qsort: unsorted at %d", i)) // caught as kernel fault
			}
		}
		c.Progress() // one unit of useful work completed
	}
}

// partition is Hoare-style partitioning with a median-of-three pivot,
// charging one cycle per comparison/swap.
func partition(c *pcore.Ctx, data []int16, lo, hi int) int {
	mid := lo + (hi-lo)/2
	if data[mid] < data[lo] {
		data[mid], data[lo] = data[lo], data[mid]
	}
	if data[hi] < data[lo] {
		data[hi], data[lo] = data[lo], data[hi]
	}
	if data[hi] < data[mid] {
		data[hi], data[mid] = data[mid], data[hi]
	}
	pivot := data[mid]
	data[mid], data[hi] = data[hi], data[mid]
	i := lo
	for j := lo; j < hi; j++ {
		if data[j] < pivot {
			data[i], data[j] = data[j], data[i]
			i++
		}
	}
	data[i], data[hi] = data[hi], data[i]
	c.Compute(hi - lo + 1)
	return i
}

// UnboundedQuicksortFactory is the latent-bug variant: plain left-first
// recursion whose worst-case depth is linear, overflowing the 512-byte
// stack on adversarial (pre-sorted) inputs — a seeded fault for the
// coverage ablation.
func UnboundedQuicksortFactory() committee.Factory {
	return func(logical uint32) committee.CreateSpec {
		return committee.CreateSpec{
			Name: unboundedNames.of(logical),
			Prio: pcore.Priority(2 + logical%(pcore.NumPriorities-2)),
			Entry: func(c *pcore.Ctx) {
				data := make([]int16, QuicksortElems)
				for i := range data {
					data[i] = int16(i) // already sorted: worst case
				}
				var sort func(lo, hi int)
				sort = func(lo, hi int) {
					if lo >= hi {
						return
					}
					c.StackPush(qsortFrame)
					// Naive last-element pivot, left-first recursion.
					pivot := data[hi]
					i := lo
					for j := lo; j < hi; j++ {
						if data[j] < pivot {
							data[i], data[j] = data[j], data[i]
							i++
						}
					}
					data[i], data[hi] = data[hi], data[i]
					c.Compute(hi - lo + 1)
					sort(lo, i-1)
					sort(i+1, hi)
					c.StackPop(qsortFrame)
				}
				sort(0, len(data)-1)
				c.Progress()
			},
		}
	}
}

// --- Case study 2: dining philosophers -----------------------------------

// Philosophers builds the paper's second case study: n philosopher tasks
// sharing n mutually exclusive forks, eating for the given number of
// rounds. ordered=false is the buggy version (each grabs left then
// right, deadlock-prone under suspension stress); ordered=true acquires
// forks in global index order and cannot deadlock. The returned forks
// expose ownership for assertions.
func Philosophers(n, rounds int, ordered bool) (committee.Factory, []*pcore.Mutex) {
	forks := make([]*pcore.Mutex, n)
	for i := range forks {
		forks[i] = pcore.NewMutex(forkNames.of(uint32(i)))
	}
	factory := func(logical uint32) committee.CreateSpec {
		i := int(logical) % n
		left, right := forks[i], forks[(i+1)%n]
		first, second := left, right
		if ordered && (i+1)%n < i {
			first, second = right, left
		}
		return committee.CreateSpec{
			Name: philNames.of(uint32(i)),
			Prio: 5, // equal priorities: fairness comes from the stress pattern
			Entry: func(c *pcore.Ctx) {
				for r := 0; r < rounds; r++ {
					c.Compute(20) // think
					c.Lock(first)
					c.Compute(10) // reach for the second fork
					c.Lock(second)
					c.Compute(30) // eat
					c.Progress()
					c.Unlock(second)
					c.Unlock(first)
					c.Yield()
				}
			},
		}
	}
	return factory, forks
}

// --- Additional seeded-fault workloads ------------------------------------

// SharedCounterChan is shared state for ProducerConsumer, kept in plain
// Go values: the co-simulation is single-threaded, so the race is a
// logical check-then-act fault, not a data race.
type pcShared struct {
	count   int
	waiting bool
}

// ProducerConsumer builds a two-task workload with a classic lost-wakeup
// bug: the consumer checks for items and then sleeps in two separate
// steps, so a producer running in between neither sees the consumer
// waiting nor signals the semaphore — the consumer sleeps forever with
// items available. Logical task 0 is the producer, 1 the consumer.
// items is the number of units to transfer.
func ProducerConsumer(items int) committee.Factory {
	shared := &pcShared{}
	wakeup := pcore.NewSem("pc-wakeup", 0)
	return func(logical uint32) committee.CreateSpec {
		if logical%2 == 0 {
			return committee.CreateSpec{
				Name: "producer",
				Prio: 5,
				Entry: func(c *pcore.Ctx) {
					for i := 0; i < items; i++ {
						c.Compute(30) // produce
						shared.count++
						c.Compute(5) // window: reads stale waiting flag
						if shared.waiting {
							shared.waiting = false
							c.SemSignal(wakeup)
						}
						c.Progress()
						c.Yield()
					}
				},
			}
		}
		return committee.CreateSpec{
			Name: "consumer",
			Prio: 5,
			Entry: func(c *pcore.Ctx) {
				consumed := 0
				for consumed < items {
					if shared.count == 0 {
						shared.waiting = true
						c.Compute(5) // window: preemption here loses the wakeup
						c.SemWait(wakeup)
					}
					if shared.count > 0 {
						shared.count--
						consumed++
						c.Progress()
					}
					c.Yield()
				}
			},
		}
	}
}

// PriorityInversion builds the three-task inversion scenario: a low-
// priority task holds a mutex, a high-priority task blocks on it, and a
// medium-priority compute hog keeps the low task off the processor, so
// the high-priority task starves. Logical tasks: 0 low, 1 medium hog,
// 2 high.
func PriorityInversion(hogBursts int) committee.Factory {
	res := pcore.NewMutex("inversion-resource")
	return func(logical uint32) committee.CreateSpec {
		switch logical % 3 {
		case 0:
			return committee.CreateSpec{
				Name: "low",
				Prio: 20,
				Entry: func(c *pcore.Ctx) {
					c.Lock(res)
					for i := 0; i < 1000; i++ {
						c.Compute(50) // long critical section at low priority
					}
					c.Unlock(res)
					c.Progress()
				},
			}
		case 1:
			return committee.CreateSpec{
				Name: "hog",
				Prio: 10,
				Entry: func(c *pcore.Ctx) {
					for i := 0; i < hogBursts; i++ {
						c.Compute(400)
						c.Progress()
						c.Yield()
					}
				},
			}
		default:
			return committee.CreateSpec{
				Name: "high",
				Prio: 2,
				Entry: func(c *pcore.Ctx) {
					c.Compute(10)
					c.Lock(res) // blocks behind low, which the hog starves
					c.Progress()
					c.Unlock(res)
				},
			}
		}
	}
}
