package event

import "testing"

// TestQueueStaysBounded: a queue that is pushed as fast as it is popped and
// never runs empty keeps FIFO order and a backing array the size of its
// backlog, not of everything that ever passed through it.
func TestQueueStaysBounded(t *testing.T) {
	var q Queue[int]
	vals := make([]int, 10_000)
	next := 0
	for i := range vals {
		vals[i] = i
		q.Push(&vals[i])
		if i >= 8 { // backlog of 8
			if got := *q.Pop(); got != next {
				t.Fatalf("pop %d = %d, want FIFO order", next, got)
			}
			next++
		}
	}
	if q.Len() != 8 || cap(q.ops) > 64 {
		t.Errorf("backlog %d in an array of %d, want 8 in a few dozen", q.Len(), cap(q.ops))
	}
	for q.Len() > 0 {
		if got := *q.Pop(); got != next {
			t.Fatalf("pop %d = %d, want FIFO order", next, got)
		}
		next++
	}
	if q.head != 0 || len(q.ops) != 0 {
		t.Errorf("an emptied queue restarts at the front: head %d len %d", q.head, len(q.ops))
	}
}
