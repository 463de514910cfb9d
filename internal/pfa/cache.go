// Compiled-PFA cache. Campaign engines execute hundreds of trials
// against the same (RE, PD) pair, and before this cache existed every
// trial paid the full regex-parse + Glushkov + merge + validate
// pipeline twice (once to generate patterns, once in the execution
// half). Compile memoizes FromRegex on a canonical fingerprint of the
// inputs, so a campaign compiles each distinct machine exactly once —
// adaptive refinement, which produces a new distribution per window,
// naturally gets one compile per window. The PFA is immutable after
// construction, so a cached machine is safely shared across
// concurrently executing trials.
package pfa

import (
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// compileCount counts full (uncached) FromRegex constructions, for
// tests and benchmarks asserting cache effectiveness.
var compileCount atomic.Uint64

// CompileCount returns the number of full PFA constructions performed
// by FromRegex since process start (cache hits do not count).
func CompileCount() uint64 { return compileCount.Load() }

// cacheLimit bounds the memo table. Campaigns touch a handful of keys;
// adaptive refinement retires a key per window. When the table fills it
// is dropped wholesale — simpler than LRU and harmless at this size.
const cacheLimit = 256

// cacheKey is a machine's identity: the regular expression and the
// fingerprint of its distribution.
type cacheKey struct{ re, dist string }

var cache = struct {
	sync.Mutex
	m map[cacheKey]*PFA
}{m: make(map[cacheKey]*PFA)}

// Compile returns the PFA for (re, d), building it with FromRegex on
// the first request and serving the shared immutable machine from the
// cache afterwards. Construction errors are not cached.
func Compile(re string, d Distribution) (*PFA, error) {
	return compile(cacheKey{re, fingerprint(d)}, d)
}

// Fixed is a distribution that never changes, fingerprinted once, so
// compiling against it again costs only the cache lookup. A suite
// checks every distribution variant of every spec it is given against
// the spec's RE, and most name one of the paper's.
type Fixed struct {
	d  Distribution
	fp string
}

// Fix fingerprints d, which nobody may modify afterwards; nil is the
// uniform distribution.
func Fix(d Distribution) *Fixed { return &Fixed{d: d, fp: fingerprint(d)} }

// Compile is Compile(re, d) for the fixed distribution d.
func (f *Fixed) Compile(re string) (*PFA, error) {
	return compile(cacheKey{re, f.fp}, f.d)
}

func compile(key cacheKey, d Distribution) (*PFA, error) {
	cache.Lock()
	if p, ok := cache.m[key]; ok {
		cache.Unlock()
		return p, nil
	}
	cache.Unlock()

	p, err := FromRegex(key.re, d)
	if err != nil {
		return nil, err
	}
	cache.Lock()
	if prior, ok := cache.m[key]; ok {
		// A concurrent trial raced us to the build; keep one canonical
		// machine so pointer-based sharing stays coherent.
		p = prior
	} else {
		if len(cache.m) >= cacheLimit {
			cache.m = make(map[cacheKey]*PFA)
		}
		cache.m[key] = p
	}
	cache.Unlock()
	return p, nil
}

// fingerprint renders d canonically: labels and symbols sorted,
// probabilities in full precision. Distributions are tiny (states ×
// symbols of the service alphabet), so this is orders of magnitude
// cheaper than the construction it keys. Every non-empty rendering
// starts with a zero byte, so the uniform marker cannot collide with
// one.
func fingerprint(d Distribution) string {
	if d == nil {
		return "uniform"
	}
	var sb strings.Builder
	labels := make([]string, 0, len(d))
	for l := range d {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		sb.WriteByte(0)
		sb.WriteString(l)
		cond := d[l]
		syms := make([]string, 0, len(cond))
		for s := range cond {
			syms = append(syms, s)
		}
		sort.Strings(syms)
		for _, s := range syms {
			sb.WriteByte(1)
			sb.WriteString(s)
			sb.WriteByte(2)
			sb.WriteString(strconv.FormatFloat(cond[s], 'x', -1, 64))
		}
	}
	return sb.String()
}
