package pcore

// CountResumes makes task id count every resume of its coroutine into
// the returned counter.
func CountResumes(k *Kernel, id TaskID) *int {
	n := new(int)
	t := k.tasks[id]
	resume := t.resume
	t.resume = func() (struct{}, bool) {
		*n++
		return resume()
	}
	return n
}

// ParkedCoroutines returns how many coroutines k holds for reuse.
func ParkedCoroutines(k *Kernel) int { return len(k.parked) }
