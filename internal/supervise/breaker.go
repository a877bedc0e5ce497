package supervise

import (
	"sort"
	"sync"
	"time"
)

// BreakerState is one key's position in the circuit-breaker state machine.
type BreakerState int

// The breaker states. Closed admits work; Open rejects it until the cooldown
// elapses; HalfOpen admits exactly one probe whose outcome decides between
// re-closing and re-opening.
const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "BreakerState(?)"
}

// BreakerConfig tunes a Breaker.
type BreakerConfig struct {
	// Threshold is how many consecutive failures with the same panic digest
	// open a key's circuit; 0 means DefaultBreakerThreshold. Failures with
	// differing digests restart the count: one flaky bug and one stable bug
	// interleaved do not pool their failures.
	Threshold int
	// Cooldown is how long an opened key rejects work before a single
	// half-open probe is admitted; 0 means DefaultBreakerCooldown.
	Cooldown time.Duration
	// Clock overrides time.Now for tests.
	Clock func() time.Time
}

// Breaker defaults.
const (
	DefaultBreakerThreshold = 3
	DefaultBreakerCooldown  = 30 * time.Second
)

// Breaker is a keyed circuit breaker over repeated supervised failures: the
// key names what keeps failing (a workload, a trace's program+spec identity)
// and the digest names how it fails (TrialFailure.StackDigest's stable
// fingerprint, or any stable failure label). After Threshold consecutive same-digest
// failures the key's circuit opens: further work on that key is rejected —
// quarantined — until the cooldown admits one probe. The rest of the
// system keeps serving healthy keys; this is PR 1's panic quarantine lifted
// from "one trial's failure record" to "an always-on service's admission
// decision".
//
// All methods are safe for concurrent use.
type Breaker struct {
	cfg BreakerConfig
	mu  sync.Mutex
	m   map[string]*breakerEntry
}

type breakerEntry struct {
	state    BreakerState
	digest   string // the digest the consecutive-failure count is tracking
	count    int
	openedAt time.Time
	probing  bool // half-open and the single probe slot is taken
	trips    int  // times this key has opened (diagnostics)
}

// NewBreaker returns a Breaker with cfg's thresholds (zero fields take the
// defaults).
func NewBreaker(cfg BreakerConfig) *Breaker {
	if cfg.Threshold <= 0 {
		cfg.Threshold = DefaultBreakerThreshold
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = DefaultBreakerCooldown
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	return &Breaker{cfg: cfg, m: make(map[string]*breakerEntry)}
}

// Allow reports whether work on key may proceed. When it may not, retryAfter
// is how long until the circuit will admit a probe (0 when a probe is
// already in flight — retry after it resolves). An open key whose cooldown
// has elapsed transitions to half-open and admits the caller as the probe.
func (b *Breaker) Allow(key string) (ok bool, retryAfter time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.m[key]
	if e == nil {
		return true, 0
	}
	switch e.state {
	case BreakerClosed:
		return true, 0
	case BreakerOpen:
		remaining := e.openedAt.Add(b.cfg.Cooldown).Sub(b.cfg.Clock())
		if remaining > 0 {
			return false, remaining
		}
		e.state = BreakerHalfOpen
		e.probing = true
		return true, 0
	default: // BreakerHalfOpen
		if e.probing {
			return false, 0
		}
		e.probing = true
		return true, 0
	}
}

// Failure records one failure of key with the given stable digest and
// reports whether this failure tripped the circuit open. A half-open probe
// failure re-opens immediately regardless of digest.
func (b *Breaker) Failure(key, digest string) (tripped bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.m[key]
	if e == nil {
		e = &breakerEntry{}
		b.m[key] = e
	}
	if e.state == BreakerHalfOpen {
		e.state = BreakerOpen
		e.openedAt = b.cfg.Clock()
		e.probing = false
		e.trips++
		return true
	}
	if e.state == BreakerOpen {
		return false
	}
	if e.digest == digest {
		e.count++
	} else {
		e.digest = digest
		e.count = 1
	}
	if e.count >= b.cfg.Threshold {
		e.state = BreakerOpen
		e.openedAt = b.cfg.Clock()
		e.trips++
		return true
	}
	return false
}

// Success records that work on key completed: a half-open probe's success
// closes the circuit, and any success resets the consecutive-failure count.
func (b *Breaker) Success(key string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if e := b.m[key]; e != nil {
		delete(b.m, key)
	}
}

// State returns key's current state (Closed for unknown keys). An open key
// past its cooldown still reports Open: the transition to half-open happens
// on the next Allow.
func (b *Breaker) State(key string) BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	if e := b.m[key]; e != nil {
		return e.state
	}
	return BreakerClosed
}

// OpenKeys lists the keys whose circuits are open or half-open, sorted — the
// service's quarantine roster for health reporting.
func (b *Breaker) OpenKeys() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	var keys []string
	for k, e := range b.m {
		if e.state != BreakerClosed {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}
