// Package lockorder is a lint fixture: every violation below is
// asserted by internal/lint's golden-file tests. It exercises the
// flow-sensitive mutex analyzer: exit-while-held, self-deadlock,
// unlock-with-defer-pending, and the whole-package lock-order cycle
// built from per-function summaries.
package lockorder

import (
	"errors"
	"sync"
)

// store pairs two named mutexes so functions below can order them
// inconsistently.
type store struct {
	mu    sync.Mutex
	bk    sync.Mutex
	state int
}

// leakOnReturn can return holding mu: the error branch exits before the
// Unlock — must fire.
func (s *store) leakOnReturn(fail bool) error {
	s.mu.Lock() // want: path can reach return without Unlock
	if fail {
		return errors.New("boom")
	}
	s.state++
	s.mu.Unlock()
	return nil
}

// selfDeadlock locks the same mutex twice on one path — must fire.
func (s *store) selfDeadlock() {
	s.mu.Lock()
	s.mu.Lock() // want: locked again while already held
	s.state++
	s.mu.Unlock()
	s.mu.Unlock()
}

// unlockWithDeferPending unlocks explicitly while the deferred unlock
// is still registered, so the defer double-unlocks at exit — must fire.
func (s *store) unlockWithDeferPending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := s.state
	s.mu.Unlock() // want: deferred unlock pending
	return v
}

// abOrder takes mu then bk — together with baOrder this is the classic
// cycle; the Finish pass must report it once.
func (s *store) abOrder() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.bk.Lock() // want: cycle witness (mu -> bk edge)
	s.state++
	s.bk.Unlock()
}

// baOrder takes bk then mu: the inverted order closing the cycle.
func (s *store) baOrder() {
	s.bk.Lock()
	defer s.bk.Unlock()
	s.mu.Lock()
	s.state--
	s.mu.Unlock()
}

// relock is a helper that takes mu; calling it while holding mu is an
// interprocedural self-deadlock the call-graph pass must catch.
func (s *store) relock() {
	s.mu.Lock()
	s.state++
	s.mu.Unlock()
}

// callsWhileHeld calls relock with mu held — must fire (transitive
// self-deadlock through the call graph).
func (s *store) callsWhileHeld() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.relock() // want: callee locks mu again
}

// deferClean is the canonical correct shape: nothing to report.
func (s *store) deferClean() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// branchClean unlocks on every path explicitly: nothing to report.
func (s *store) branchClean(fail bool) error {
	s.mu.Lock()
	if fail {
		s.mu.Unlock()
		return errors.New("boom")
	}
	s.state++
	s.mu.Unlock()
	return nil
}

// rwClean uses a read lock with a deferred release: nothing to report.
type table struct {
	rw sync.RWMutex
	m  map[string]int
}

func (t *table) get(k string) int {
	t.rw.RLock()
	defer t.rw.RUnlock()
	return t.m[k]
}

// unlockRelockClean mirrors the singleflight pattern: unlock to wait,
// relock afterwards, with an early-unlock-and-return branch. Nothing to
// report.
func (s *store) unlockRelockClean(ready <-chan struct{}) int {
	s.mu.Lock()
	if s.state > 0 {
		v := s.state
		s.mu.Unlock()
		return v
	}
	s.mu.Unlock()
	<-ready
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// escapeHatch shows the suppression path for a lock handed to a helper
// that unlocks it (a pattern the analyzer cannot follow).
func (s *store) escapeHatch() {
	//lint:allow lockorder unlocked by finish() on every path
	s.mu.Lock()
	s.finish()
}

func (s *store) finish() {
	s.state++
	s.mu.Unlock()
}

// lockNoUnlock never unlocks at all — must fire. (This case and the
// next were once a syntactic "Lock pairs with an Unlock somewhere" check; the
// per-path analysis subsumes it.)
func (s *store) lockNoUnlock() {
	s.mu.Lock() // want: path can reach return without Unlock
	s.state++
}

// rlockNoRUnlock pins the read-lock wording — must fire.
func (t *table) rlockNoRUnlock(k string) int {
	t.rw.RLock() // want: path can reach return without RUnlock
	return t.m[k]
}
