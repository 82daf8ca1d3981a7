// Package lockcopy is a lint fixture: every violation below is asserted
// by internal/lint's golden-file tests.
package lockcopy

import "sync"

// Guarded carries a mutex, so it must never travel by value.
type Guarded struct {
	mu sync.Mutex
	n  int
}

// RW carries a read-write mutex through an embedded struct.
type RW struct {
	inner Guarded
	rw    sync.RWMutex
	v     int
}

func byValueParam(g Guarded) int { // want: parameter carries the mutex
	return g.n
}

func (g Guarded) byValueRecv() int { // want: receiver carries the mutex
	return g.n
}

func byValueResult() RW { // want: result carries the mutex
	return RW{}
}

func byPointer(g *Guarded) int { // ok: the mutex stays where it is
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.n
}

//lint:allow lockcopy snapshot of a value no other goroutine has seen yet
func allowedCopy(g Guarded) int { // suppressed by the allow comment
	return g.n
}
