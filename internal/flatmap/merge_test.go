package flatmap

import (
	"slices"
	"testing"
)

func TestMergeOrder(t *testing.T) {
	var m Merge[int]
	if !m.Lead(7, 0) {
		t.Fatal("the first miss on 7 does not lead")
	}
	for w := 1; w <= 3; w++ {
		if m.Lead(7, w) {
			t.Fatalf("waiter %d leads behind an outstanding miss", w)
		}
	}
	if !m.Lead(9, 10) {
		t.Fatal("a miss on another key does not lead")
	}
	if got := m.Done(7); !slices.Equal(got, []int{1, 2, 3}) {
		t.Fatalf("Done(7) = %v, want the waiters in merge order [1 2 3]", got)
	}
	if got := m.Done(9); got != nil {
		t.Fatalf("Done(9) = %v, want nil: nothing merged behind it", got)
	}
	if !m.Lead(7, 4) {
		t.Fatal("a miss on 7 after Done does not lead")
	}
}

// A waiter that misses on its key again while the waiters of the miss
// that just completed resolve starts a fresh miss, and the list being
// resolved is not disturbed.
func TestMergeReopenDuringDone(t *testing.T) {
	var m Merge[int]
	m.Lead(5, 0)
	m.Lead(5, 1)
	m.Lead(5, 2)
	list := m.Done(5)
	for i, w := range list {
		if i != 0 {
			continue
		}
		if !m.Lead(5, 100+w) {
			t.Fatal("a re-opened key does not lead a fresh miss")
		}
		if m.Lead(5, 200) {
			t.Fatal("a second miss on the re-opened key leads")
		}
	}
	if !slices.Equal(list, []int{1, 2}) {
		t.Fatalf("resolving list = %v after the re-open, want [1 2]", list)
	}
	m.Recycle(list)
	if got := m.Done(5); !slices.Equal(got, []int{200}) {
		t.Fatalf("the fresh miss's waiters = %v, want [200]", got)
	}
}

func TestMergeRecycleReusesList(t *testing.T) {
	var m Merge[int]
	m.Lead(1, 0)
	m.Lead(1, 1)
	list := m.Done(1)
	first := &list[0]
	m.Recycle(list)
	m.Recycle(nil) // nothing merged: not pooled
	if len(m.pool) != 1 {
		t.Fatalf("pool holds %d lists, want 1", len(m.pool))
	}
	m.Lead(2, 0)
	m.Lead(2, 5)
	again := m.Done(2)
	if &again[0] != first || !slices.Equal(again, []int{5}) {
		t.Fatalf("the next merge got %v in new storage, not the recycled list", again)
	}
}

func TestMergeResetDropsOutstanding(t *testing.T) {
	var m Merge[int]
	m.Lead(1, 0)
	m.Lead(1, 1)
	m.Lead(2, 0)
	m.Reset()
	for _, k := range []uint64{1, 2} {
		if !m.Lead(k, 3) {
			t.Fatalf("after Reset a miss on %d does not lead", k)
		}
		if got := m.Done(k); got != nil {
			t.Fatalf("after Reset Done(%d) = %v, want nil", k, got)
		}
	}
}

// A warm lead, merge, Done and Recycle cycle allocates nothing.
func TestMergeAllocatesNothingWarm(t *testing.T) {
	var m Merge[*int]
	w := new(int)
	cycle := func() {
		for k := uint64(0); k < 16; k++ {
			m.Lead(k, w)
			m.Lead(k, w)
			m.Lead(k, w)
		}
		for k := uint64(0); k < 16; k++ {
			m.Recycle(m.Done(k))
		}
	}
	cycle()
	if a := testing.AllocsPerRun(100, cycle); a != 0 {
		t.Fatalf("a warm merge cycle makes %v allocations, want 0", a)
	}
}

// FuzzMergeDifferential drives Merge and a map[uint64][]int reference with
// the same Lead, Done, Recycle and Reset sequence. Lists Done returned are
// held, and checked unchanged when they are recycled, so a list reused
// while a caller still resolves it fails.
func FuzzMergeDifferential(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 0, 1, 2, 1, 3, 0})
	f.Add([]byte{0, 3, 1, 3, 2, 3, 0, 3, 1, 3, 4, 0, 0, 3, 2, 3, 3, 0, 3, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var m Merge[int]
		ref := make(map[uint64][]int)
		type held struct{ got, want []int }
		var out []held
		next := 0
		for i := 0; i+1 < len(ops); i += 2 {
			k := uint64(ops[i+1] % 8)
			switch ops[i] % 5 {
			case 0, 1:
				next++
				list, open := ref[k]
				if lead := m.Lead(k, next); lead == open {
					t.Fatalf("op %d: Lead(%d) = %v with a miss outstanding %v", i, k, lead, open)
				}
				if open {
					list = append(list, next)
				}
				ref[k] = list
			case 2:
				got, want := m.Done(k), ref[k]
				if !slices.Equal(got, want) || (got == nil) != (want == nil) {
					t.Fatalf("op %d: Done(%d) = %v, want %v", i, k, got, want)
				}
				delete(ref, k)
				out = append(out, held{got, slices.Clone(want)})
			case 3:
				if len(out) == 0 {
					continue
				}
				h := out[0]
				out = out[1:]
				if !slices.Equal(h.got, h.want) {
					t.Fatalf("op %d: a held list changed to %v before Recycle, want %v", i, h.got, h.want)
				}
				m.Recycle(h.got)
			case 4:
				m.Reset()
				clear(ref)
			}
		}
		for _, h := range out {
			if !slices.Equal(h.got, h.want) {
				t.Fatalf("a held list changed to %v, want %v", h.got, h.want)
			}
		}
	})
}
