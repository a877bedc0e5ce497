// Singleflight: concurrent identical requests share one checker run.
//
// The store's index doubles as the coalescing point. The first caller to
// miss on a key becomes the *leader* and owns the checker run; everyone who
// misses on the same key while the leader is in flight becomes a *waiter*
// and blocks on the flight's done channel instead of re-running the check.
// The leader publishes its result (or failure) with Finish; waiters decide
// for themselves what a shared failure means (the server, for instance,
// re-attributes a leader that was canceled by its own client rather than
// blaming the waiter's request).
package store

import "sync"

// Flight is one in-progress computation for a key. Waiters select on
// Done(), then read Result().
type Flight struct {
	done chan struct{}

	once  sync.Once
	entry *Entry
	err   error
}

// Done is closed when the leader finishes, successfully or not.
func (f *Flight) Done() <-chan struct{} { return f.done }

// Result returns the leader's outcome. Valid only after Done() is closed.
func (f *Flight) Result() (*Entry, error) { return f.entry, f.err }

// Lookup is the coalescing read: a cache hit returns (entry, nil, false); a
// miss either joins an existing flight (nil, flight, false) or creates one
// with the caller as leader (nil, flight, true). A leader must call Finish
// exactly once; abandoning a flight strands its waiters. Misses are charged
// to leaders only, so the hit/miss/coalesced counters partition requests.
// A nil store has nothing to share: every caller leads, with no flight.
func (s *Store) Lookup(k Key) (*Entry, *Flight, bool) {
	if s == nil {
		return nil, nil, true
	}
	if e, ok := s.lookup(k); ok {
		return e, nil, false
	}
	id := k.ID()
	s.mu.Lock()
	if f, ok := s.flights[id]; ok {
		s.mu.Unlock()
		s.coalesced.Inc()
		return nil, f, false
	}
	// The leader that was in flight when we missed may have finished in
	// the window before we took the lock; its Put lands in the memory tier
	// under this same mutex, so one locked re-check closes the race.
	if el, ok := s.mem[id]; ok {
		s.lru.MoveToFront(el)
		e := el.Value.(*memEntry).e
		s.mu.Unlock()
		s.hits.Inc()
		return e, nil, false
	}
	f := &Flight{done: make(chan struct{})}
	s.flights[id] = f
	s.mu.Unlock()
	s.misses.Inc()
	return nil, f, true
}

// Finish publishes the leader's outcome on f and releases its waiters. The
// result is NOT stored here — a leader that wants the result cached calls
// Put first (hits for late arrivals), then Finish (release for waiters);
// a leader whose run failed or is uncacheable calls Finish alone. Finish
// without a flight (a nil store's leader holds none) does nothing.
func (s *Store) Finish(k Key, f *Flight, e *Entry, err error) {
	if f == nil {
		return
	}
	id := k.ID()
	s.mu.Lock()
	if s.flights[id] == f {
		delete(s.flights, id)
	}
	s.mu.Unlock()
	f.once.Do(func() {
		f.entry = e
		f.err = err
		close(f.done)
	})
}
