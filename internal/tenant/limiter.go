// The per-tenant token-bucket rate limiter. One Limiter guards one
// operation class (job submission); each tenant gets its own
// lazily-created bucket. Time comes from a clock.Wall, so tests pin
// refill and Retry-After arithmetic on a FakeWall with no sleeps.
package tenant

import (
	"math"
	"sync"
	"time"

	"repro/internal/clock"
)

// Limiter is a set of per-tenant token buckets sharing one rate.
// A nil Limiter, or one built with rate <= 0, allows everything.
type Limiter struct {
	rate  float64 // tokens per second
	burst float64 // bucket capacity

	mu      sync.Mutex
	wall    clock.Wall
	buckets map[string]*bucket
}

type bucket struct {
	tokens float64
	last   time.Time
}

// NewLimiter builds a limiter refilling rate tokens/second into buckets
// of the given burst capacity (minimum 1). rate <= 0 returns nil — the
// unlimited limiter.
func NewLimiter(rate float64, burst int, wall clock.Wall) *Limiter {
	if rate <= 0 {
		return nil
	}
	if burst < 1 {
		burst = 1
	}
	if wall == nil {
		wall = clock.System()
	}
	return &Limiter{
		rate:    rate,
		burst:   float64(burst),
		wall:    wall,
		buckets: map[string]*bucket{},
	}
}

// Allow spends one token from name's bucket. When the bucket is empty
// it returns ok=false and how long until the next token accumulates —
// the exact wait a Retry-After header should advertise.
func (l *Limiter) Allow(name string) (retryAfter time.Duration, ok bool) {
	if l == nil {
		return 0, true
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.wall.Now()
	b := l.buckets[name]
	if b == nil {
		b = &bucket{tokens: l.burst, last: now}
		l.buckets[name] = b
	} else {
		b.tokens = math.Min(l.burst, b.tokens+now.Sub(b.last).Seconds()*l.rate)
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return 0, true
	}
	return time.Duration((1 - b.tokens) / l.rate * float64(time.Second)), false
}

// RetryAfterSeconds rounds a wait up to the whole seconds the
// Retry-After header carries, never less than 1 — "come back now" on a
// throttled request would just bounce straight back into the bucket.
func RetryAfterSeconds(d time.Duration) int {
	if d <= 0 {
		return 1
	}
	s := int(math.Ceil(d.Seconds()))
	if s < 1 {
		s = 1
	}
	return s
}
