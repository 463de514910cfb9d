package pcore

import "fmt"

// Pool is a fixed-block allocator in the style of a tiny RTOS: a free
// list of block indices plus a garbage list of blocks released by
// task_delete that the kernel's garbage collector reclaims later. The
// paper's first case study crashed pCore through "the failure of garbage
// collection" under task create/delete churn; FaultPlan.GCLeakEvery
// reproduces that failure mode here.
type Pool struct {
	name    string
	free    []int // free and garbage share one array, n blocks each
	garbage []int
	inUse   []bool // by block index
	size    int

	// leak counters for the injected fault
	leaked     int
	gcPasses   int
	blocksSeen int // garbage blocks processed across all passes
}

// NewPool returns a pool of n blocks, all free.
func NewPool(name string, n int) *Pool {
	lists := make([]int, 2*n)
	p := &Pool{name: name, size: n, inUse: make([]bool, n),
		free: lists[:0:n], garbage: lists[n : n : 2*n]}
	for i := n - 1; i >= 0; i-- {
		p.free = append(p.free, i)
	}
	return p
}

// Size returns the total block count.
func (p *Pool) Size() int { return p.size }

// Free returns the immediately allocatable block count.
func (p *Pool) Free() int { return len(p.free) }

// Garbage returns the count of blocks awaiting collection.
func (p *Pool) Garbage() int { return len(p.garbage) }

// InUse returns the count of live blocks: every block is free, garbage,
// in use or leaked.
func (p *Pool) InUse() int { return p.size - len(p.free) - len(p.garbage) - p.leaked }

// Leaked returns the number of blocks lost to the injected GC fault.
func (p *Pool) Leaked() int { return p.leaked }

// Alloc takes a block from the free list. ok is false when empty — the
// caller should run the garbage collector and retry.
func (p *Pool) Alloc() (int, bool) {
	if len(p.free) == 0 {
		return -1, false
	}
	b := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	p.inUse[b] = true
	return b, true
}

// Release moves a live block to the garbage list (deferred reclamation,
// as pCore defers TCB/stack reuse until the deleted task is definitely
// off-CPU). Releasing an unknown block returns an error that the kernel
// converts into a double-free fault.
func (p *Pool) Release(b int) error {
	if b < 0 || b >= p.size || !p.inUse[b] {
		return fmt.Errorf("pool %s: release of block %d not in use", p.name, b)
	}
	p.inUse[b] = false
	p.garbage = append(p.garbage, b)
	return nil
}

// Collect runs one garbage-collection pass, moving garbage blocks back
// to the free list. leakEvery injects the paper's GC failure: every
// leakEvery-th garbage block the collector processes (counted across all
// passes) is silently dropped instead of reclaimed — it vanishes from the
// pool, exactly like a buggy collector losing freed TCBs. The pool
// therefore shrinks monotonically under create/delete churn until
// allocation fails, which is the crash dynamics of the paper's first
// case study. leakEvery <= 0 disables the fault. Collect reports how
// many blocks were reclaimed and how many leaked.
func (p *Pool) Collect(leakEvery int) (reclaimed, leaked int) {
	p.gcPasses++
	if len(p.garbage) == 0 {
		return 0, 0
	}
	for _, b := range p.garbage {
		p.blocksSeen++
		if leakEvery > 0 && p.blocksSeen%leakEvery == 0 {
			leaked++
			continue
		}
		p.free = append(p.free, b)
		reclaimed++
	}
	p.leaked += leaked
	p.garbage = p.garbage[:0]
	return reclaimed, leaked
}

// Exhausted reports whether no block can ever be produced again: free and
// garbage are both empty and at least one block has leaked or all blocks
// are in use.
func (p *Pool) Exhausted() bool {
	return len(p.free) == 0 && len(p.garbage) == 0
}
