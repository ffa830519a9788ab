// Positive fixtures: checked as repro/internal/storage/fixture, so the
// unlocked-mutation rule is in scope.
package fixture

import "sync"

type Counter struct {
	mu sync.RWMutex
	n  int
}

func (c *Counter) BumpUnlocked() {
	c.n++ // want "not dominated by a write lock"
}

func (c *Counter) BumpUnderRLock() {
	c.mu.RLock()
	defer c.mu.RUnlock()
	c.n++ // want "holding only the read lock"
}
