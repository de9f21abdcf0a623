package clocktest_test

import (
	"testing"
	"time"

	"fekf/internal/fleet/clocktest"
	"fekf/internal/online"
)

// The fake clock must satisfy the online loop's Clock seam.
var _ online.Clock = (*clocktest.Clock)(nil)

func TestNowAdvancesOnlyExplicitly(t *testing.T) {
	start := time.Unix(1000, 0)
	c := clocktest.New(start)
	if !c.Now().Equal(start) {
		t.Fatalf("Now = %v, want %v", c.Now(), start)
	}
	c.Advance(3 * time.Second)
	if got := c.Now(); !got.Equal(start.Add(3 * time.Second)) {
		t.Fatalf("Now after Advance = %v", got)
	}
	// Set never moves backwards.
	c.Set(start)
	if got := c.Now(); !got.Equal(start.Add(3 * time.Second)) {
		t.Fatalf("Set moved time backwards to %v", got)
	}
}

func TestAfterFiresOnAdvance(t *testing.T) {
	c := clocktest.New(time.Unix(0, 0))
	ch := c.After(10 * time.Second)
	select {
	case <-ch:
		t.Fatal("After fired before any Advance")
	default:
	}
	c.Advance(9 * time.Second)
	select {
	case <-ch:
		t.Fatal("After fired before its deadline")
	default:
	}
	if c.Waiters() != 1 {
		t.Fatalf("Waiters = %d, want 1", c.Waiters())
	}
	c.Advance(time.Second)
	select {
	case at := <-ch:
		if !at.Equal(time.Unix(10, 0)) {
			t.Fatalf("fired at %v, want t+10s", at)
		}
	default:
		t.Fatal("After did not fire at its deadline")
	}
	if c.Waiters() != 0 {
		t.Fatalf("Waiters = %d after firing, want 0", c.Waiters())
	}
}

func TestAfterNonPositiveFiresImmediately(t *testing.T) {
	c := clocktest.New(time.Unix(0, 0))
	select {
	case <-c.After(0):
	default:
		t.Fatal("After(0) did not fire immediately")
	}
}
