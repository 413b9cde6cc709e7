package event

// Freelist recycles the pooled operation records that ride Ref.Obj through a
// chain of closure-free events. It is a plain LIFO with no locking: a list
// belongs to one execution context (one shard's engine, or one core) and is
// only touched from it. A record taken from one context's list may be put on
// another's — it simply migrates — so per-list counts can go negative; the
// sum of Out over every list of a record type is the number of records still
// in flight, which must be zero once a run has drained.
//
// The zero value is an empty list.
type Freelist[T any] struct {
	free []*T
	out  int
}

// Get pops the most recently returned record, or returns nil when the list is
// empty: the caller then allocates one, which is also the one moment to bind
// any func values the record carries.
func (f *Freelist[T]) Get() *T {
	f.out++
	n := len(f.free)
	if n == 0 {
		return nil
	}
	op := f.free[n-1]
	f.free = f.free[:n-1]
	return op
}

// Put returns a record. The caller resets it first (see the record types):
// the list never looks inside.
func (f *Freelist[T]) Put(op *T) {
	f.out--
	f.free = append(f.free, op)
}

// Out reports records taken from this list minus records returned to it.
func (f *Freelist[T]) Out() int { return f.out }
