package online

import (
	"errors"
	"testing"
	"time"

	"fekf/internal/dataset"
)

func frame(tag float64) dataset.Snapshot {
	return dataset.Snapshot{
		Pos:    []float64{tag, 0, 0},
		Box:    [3]float64{10, 10, 10},
		Types:  []int{0},
		Energy: tag,
		Forces: []float64{0, 0, 0},
	}
}

func TestParsePolicy(t *testing.T) {
	for in, want := range map[string]Policy{
		"": Block, "block": Block, "drop-new": DropNewest,
		"DROP-NEWEST": DropNewest, "drop-old": DropOldest, "dropold": DropOldest,
	} {
		got, err := ParsePolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParsePolicy("banana"); err == nil {
		t.Fatal("expected error for unknown policy")
	}
}

func TestQueueDropNewest(t *testing.T) {
	q := NewQueue(2, DropNewest)
	for i := 0; i < 2; i++ {
		if ok, err := q.Push(frame(float64(i))); !ok || err != nil {
			t.Fatalf("push %d: %v %v", i, ok, err)
		}
	}
	if ok, err := q.Push(frame(99)); ok || err != nil {
		t.Fatalf("full queue accepted a frame under DropNewest: %v %v", ok, err)
	}
	if q.Dropped() != 1 || q.Pushed() != 2 {
		t.Fatalf("counters: pushed=%d dropped=%d", q.Pushed(), q.Dropped())
	}
	// the buffered frames are the two oldest
	s, ok := q.Pop()
	if !ok || s.Energy != 0 {
		t.Fatalf("pop got %v %v, want oldest frame", s.Energy, ok)
	}
}

func TestQueueDropOldest(t *testing.T) {
	q := NewQueue(2, DropOldest)
	for i := 0; i < 4; i++ {
		if ok, err := q.Push(frame(float64(i))); !ok || err != nil {
			t.Fatalf("push %d: %v %v", i, ok, err)
		}
	}
	if q.Dropped() != 2 {
		t.Fatalf("dropped %d, want 2 evictions", q.Dropped())
	}
	// survivors are the two newest, in order
	for _, want := range []float64{2, 3} {
		s, ok := q.Pop()
		if !ok || s.Energy != want {
			t.Fatalf("pop got %v %v, want %v", s.Energy, ok, want)
		}
	}
}

func TestQueueBlockBackpressure(t *testing.T) {
	q := NewQueue(1, Block)
	if ok, _ := q.Push(frame(1)); !ok {
		t.Fatal("first push must succeed")
	}
	done := make(chan error, 1)
	go func() {
		ok, err := q.Push(frame(2)) // blocks until the consumer pops
		if !ok && err == nil {
			err = errors.New("blocked push reported not accepted")
		}
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("push did not block on a full queue: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	if _, ok := q.Pop(); !ok {
		t.Fatal("pop failed")
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("push stayed blocked after space was freed")
	}
}

func TestQueueCloseUnblocksAndDrains(t *testing.T) {
	q := NewQueue(1, Block)
	q.Push(frame(1))
	done := make(chan error, 1)
	go func() {
		_, err := q.Push(frame(2))
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	q.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("blocked push got %v, want ErrClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Close did not unblock the waiting push")
	}
	if _, err := q.Push(frame(3)); !errors.Is(err, ErrClosed) {
		t.Fatalf("push after close got %v, want ErrClosed", err)
	}
	// the buffered frame is still poppable after close
	if s, ok := q.Pop(); !ok || s.Energy != 1 {
		t.Fatalf("drain after close got %v %v", s.Energy, ok)
	}
}
