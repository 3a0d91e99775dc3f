package core

import (
	"vcache/internal/flatmap"
	"vcache/internal/memory"
)

// remapTable implements the dynamic synonym remapping of §4.3 (from the
// authors' earlier ASDT design): a small per-CU table mapping a non-leading
// virtual page to the page's leading virtual page. Remapped accesses look
// up the virtual caches under the leading address directly, so active
// synonym pages stop missing and replaying on every access. Entries are
// installed when the FBT detects a synonym and are flushed conservatively
// on shootdowns and context switches.
type remapTable struct {
	cap   int
	m     flatmap.Map[memory.VPN] // VPN -> leading VPN
	order []memory.VPN            // FIFO replacement
}

func newRemapTable(capacity int) *remapTable {
	if capacity <= 0 {
		capacity = 32
	}
	return &remapTable{cap: capacity}
}

// get returns the leading VPN for vpn, if remapped.
func (r *remapTable) get(vpn memory.VPN) (memory.VPN, bool) {
	return r.m.Get(uint64(vpn))
}

// put installs vpn -> lead, evicting the oldest entry at capacity.
func (r *remapTable) put(vpn, lead memory.VPN) {
	if p := r.m.Ref(uint64(vpn)); p != nil {
		*p = lead
		return
	}
	if r.m.Len() >= r.cap {
		victim := r.order[0]
		r.order = r.order[1:]
		r.m.Delete(uint64(victim))
	}
	r.m.Put(uint64(vpn), lead)
	r.order = append(r.order, vpn)
}

// clear drops every entry.
func (r *remapTable) clear() {
	r.m.Reset()
	r.order = r.order[:0]
}

// len returns the live entry count.
func (r *remapTable) len() int { return r.m.Len() }
