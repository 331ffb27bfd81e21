package tenant

import (
	"sync"
	"time"
)

// Bucket is a token-bucket rate limiter. Tokens refill continuously at
// the configured rate up to the burst ceiling; one admission costs one
// token. The zero value is a fresh bucket that starts full at its first
// Take. All state transitions happen under the mutex against an explicit
// clock, so tests drive it deterministically.
//
// The bucket holds no policy: callers pass the rate and burst in force,
// so a reload that changes them keeps the tokens already spent.
type Bucket struct {
	mu     sync.Mutex
	tokens float64
	last   time.Time
}

// Take attempts to spend one token at time now. On refusal it reports
// how long until a full token will have refilled — the Retry-After hint.
// A non-positive rate means unlimited: Take always admits.
func (b *Bucket) Take(rate, burst float64, now time.Time) (ok bool, retryAfter time.Duration) {
	if rate <= 0 {
		return true, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.last.IsZero() {
		b.tokens = burst
	} else if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * rate
		if b.tokens > burst {
			b.tokens = burst
		}
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	deficit := 1 - b.tokens
	return false, time.Duration(deficit / rate * float64(time.Second))
}

// Refit adapts the bucket to a reloaded policy. Under a rate limit the
// banked tokens are clamped to the new burst: a reload is not a free
// refill. An unlimited policy (rate <= 0) forgets the spend history, so a
// later limited policy starts the tenant at its full burst.
func (b *Bucket) Refit(rate, burst float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if rate <= 0 {
		b.last = time.Time{}
	} else if b.tokens > burst {
		b.tokens = burst
	}
}
