package flatmap

// Merge is a miss-merge table, the MSHR of a cache, TLB or walker:
// concurrent misses on one key merge behind the first, which leads the one
// fetch of the key, and the waiters resolve in merge order when it
// completes. A key is present while its miss is outstanding, with a nil
// waiter list until a second miss merges behind it. Drained lists recycle
// through the table's pool, so steady-state merging allocates nothing.
// The zero value is an empty table ready for use.
type Merge[W any] struct {
	m    Map[[]W]
	pool [][]W
}

// Lead reports whether a miss on k leads: true if no miss on k was
// outstanding (one now is, and the caller must start its fetch and later
// call Done), false if w joined the outstanding miss as its next waiter.
// The leader itself is not stored.
func (t *Merge[W]) Lead(k uint64, w W) bool {
	list := t.m.Ref(k)
	if list == nil {
		t.m.Put(k, nil)
		return true
	}
	if *list == nil {
		if n := len(t.pool); n > 0 {
			*list = t.pool[n-1]
			t.pool = t.pool[:n-1]
		} else {
			*list = make([]W, 0, 8)
		}
	}
	*list = append(*list, w)
	return false
}

// Done ends the outstanding miss on k and returns its waiters in merge
// order (nil if none merged). A waiter that misses on k again while the
// caller resolves the list leads a fresh miss. Hand the list to Recycle
// once the last waiter has run.
func (t *Merge[W]) Done(k uint64) []W {
	list, _ := t.m.Delete(k)
	return list
}

// Recycle returns a list Done returned to the pool, releasing its waiters.
// A nil list (a miss nothing merged behind) is not pooled.
func (t *Merge[W]) Recycle(list []W) {
	if list == nil {
		return
	}
	clear(list)
	t.pool = append(t.pool, list[:0])
}

// Reset drops every outstanding miss, keeping the table's storage and its
// pool.
func (t *Merge[W]) Reset() { t.m.Reset() }
