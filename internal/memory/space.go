package memory

import (
	"fmt"
	"slices"

	"vcache/internal/flatmap"
)

// revEntry is one reverse-map record: the VPNs mapped to a physical page
// live in a vpnArena block of capacity 1<<cls starting at off.
type revEntry struct {
	off     int32
	n       int32
	cls     uint8 // block capacity is 1 << cls
	foreign bool  // frame owned elsewhere (MapFrame); never freed here
}

// vpnArena backs the reverse-map synonym lists: power-of-two blocks carved
// from one slice and recycled through per-size-class free lists, so synonym
// bookkeeping allocates nothing in steady state. Synonym lists are almost
// always length 1 (only explicit MapSynonym/MapFrame calls grow them), so
// blocks start at capacity 1.
type vpnArena struct {
	buf  []VPN
	free [][]int32 // free block offsets, indexed by size class
}

func (a *vpnArena) alloc(cls uint8) int32 {
	if int(cls) < len(a.free) {
		if fl := a.free[cls]; len(fl) > 0 {
			off := fl[len(fl)-1]
			a.free[cls] = fl[:len(fl)-1]
			return off
		}
	}
	// Grow in place rather than appending a fresh block: a temporary
	// block is only optimized away outside race builds, and the arena
	// must not allocate per mapped page in either.
	off := int32(len(a.buf))
	n := 1 << cls
	a.buf = slices.Grow(a.buf, n)[:int(off)+n]
	clear(a.buf[off:])
	return off
}

func (a *vpnArena) release(off int32, cls uint8) {
	for int(cls) >= len(a.free) {
		a.free = append(a.free, nil)
	}
	a.free[cls] = append(a.free[cls], off)
}

func (a *vpnArena) reset() {
	a.buf = a.buf[:0]
	for i := range a.free {
		a.free[i] = a.free[i][:0]
	}
}

// AddressSpace is a demand-mapped virtual address space: the first touch of
// a page allocates a physical frame and installs the translation, the way
// an OS would service a minor fault. It also supports synonym mappings
// (two virtual pages sharing one physical page) and permission changes,
// which upstream components turn into TLB shootdowns.
type AddressSpace struct {
	ID    ASID
	Table *PageTable
	alloc *FrameAlloc

	// rev maps uint64(PPN) -> the VPNs mapped to it (in arena blocks), for
	// synonym bookkeeping, plus the foreign-frame flag.
	rev   flatmap.Map[revEntry]
	arena vpnArena
	keys  []uint64 // Release's sorted rev keys, kept for the next Release

	defaultPerm Perm
}

// NewAddressSpace creates an empty space with the given ASID. Pages mapped
// on demand receive read+write permission unless overridden with
// SetDefaultPerm.
func NewAddressSpace(id ASID, alloc *FrameAlloc) *AddressSpace {
	return &AddressSpace{
		ID:          id,
		Table:       NewPageTable(alloc),
		alloc:       alloc,
		defaultPerm: PermRead | PermWrite,
	}
}

// Reuse turns a released space into an empty one under id, exactly as
// NewAddressSpace(id, alloc) would build it: a fresh root frame, taken
// from the allocator at the same point, no mappings and read+write
// default permission. Its tables keep their capacity, so an ASID-slot
// rollover that recycles a space allocates nothing on the host. The old
// table's node frames stay allocated, as a dropped space's would. Call
// it only after Release, which frees the old mappings' frames and empties
// the reverse map, or after Discard.
func (as *AddressSpace) Reuse(id ASID) {
	as.ID = id
	as.Table.reuse()
	as.defaultPerm = PermRead | PermWrite
}

// Discard drops every mapping without freeing a frame, for an owner that
// takes every frame back at once (FrameAlloc.Reset). Like Release, it
// leaves the space fit only for Reuse, and it keeps the tables' storage.
func (as *AddressSpace) Discard() {
	as.rev.Reset()
	as.arena.reset()
}

// SetDefaultPerm sets the permission used for demand-mapped pages.
func (as *AddressSpace) SetDefaultPerm(p Perm) { as.defaultPerm = p }

// revAppend records vpn as mapped to ppn, preserving insertion order (the
// first VPN recorded for a frame is the one Release consults for large-page
// geometry).
func (as *AddressSpace) revAppend(ppn PPN, vpn VPN) {
	e := as.rev.Ref(uint64(ppn))
	if e == nil {
		off := as.arena.alloc(0)
		as.arena.buf[off] = vpn
		as.rev.Put(uint64(ppn), revEntry{off: off, n: 1})
		return
	}
	if e.n == 1<<e.cls {
		cls := e.cls + 1
		off := as.arena.alloc(cls)
		copy(as.arena.buf[off:off+e.n], as.arena.buf[e.off:e.off+e.n])
		as.arena.release(e.off, e.cls)
		e.off, e.cls = off, cls
	}
	as.arena.buf[e.off+e.n] = vpn
	e.n++
}

// EnsureMapped guarantees va's page is mapped, allocating a frame on first
// touch, and returns its PTE.
func (as *AddressSpace) EnsureMapped(va VAddr) PTE {
	vpn := va.Page()
	if pte, ok := as.Table.Lookup(vpn); ok {
		return pte
	}
	ppn := as.alloc.Alloc()
	as.Table.Map(vpn, ppn, as.defaultPerm)
	as.revAppend(ppn, vpn)
	return PTE{PPN: ppn, Perm: as.defaultPerm, Valid: true}
}

// EnsureMappedLarge guarantees va's 2MB region is mapped with a single
// large page, allocating 512 contiguous frames on first touch. It panics
// if 4KB mappings already cover part of the region (a real OS would
// either reject or promote; the simulator keeps the invariant strict).
func (as *AddressSpace) EnsureMappedLarge(va VAddr) PTE {
	vpn := va.Page()
	if pte, ok := as.Table.Lookup(vpn); ok {
		return pte
	}
	base, _ := LargeBase(vpn, 0)
	ppn := as.alloc.AllocContig(PagesPerLarge)
	as.Table.MapLarge(base, ppn, as.defaultPerm)
	as.revAppend(ppn, base)
	pte, _ := as.Table.Lookup(vpn)
	return pte
}

// Translate returns the physical address for va if mapped.
func (as *AddressSpace) Translate(va VAddr) (PAddr, Perm, bool) {
	pte, ok := as.Table.Lookup(va.Page())
	if !ok {
		return 0, 0, false
	}
	return pte.PPN.Base() + PAddr(va.Offset()), pte.Perm, true
}

// MapSynonym maps the page containing alias to the same physical frame as
// the page containing target (demand-mapping target first if needed), with
// permission perm. This creates a virtual-address synonym: two VPNs naming
// one PPN.
func (as *AddressSpace) MapSynonym(alias, target VAddr, perm Perm) PTE {
	tgt := as.EnsureMapped(target)
	vpn := alias.Page()
	if old, ok := as.Table.Lookup(vpn); ok && old.PPN == tgt.PPN {
		return old
	}
	as.Table.Map(vpn, tgt.PPN, perm)
	as.revAppend(tgt.PPN, vpn)
	return PTE{PPN: tgt.PPN, Perm: perm, Valid: true}
}

// MapFrame maps va's page directly to a caller-chosen physical frame with
// permission perm — the cross-address-space sharing primitive (tenants
// mapping one read-only frame). The frame is owned by whoever allocated
// it: this space marks it foreign and will never free it.
func (as *AddressSpace) MapFrame(va VAddr, ppn PPN, perm Perm) PTE {
	vpn := va.Page()
	if old, ok := as.Table.Lookup(vpn); ok && old.PPN == ppn {
		return old
	}
	as.Table.Map(vpn, ppn, perm)
	as.revAppend(ppn, vpn)
	as.rev.Ref(uint64(ppn)).foreign = true
	return PTE{PPN: ppn, Perm: perm, Valid: true}
}

// Release frees every frame the space allocated for itself back to the
// shared allocator (foreign MapFrame frames stay live) and returns how
// many frames were freed. Frames are freed in ascending PPN order so
// recycling — and therefore every later allocation — is deterministic;
// the order is sorted in a slice the space keeps, so a warm Release
// allocates nothing. The page table's node frames are not freed. The
// space must not be used afterwards, except to Reuse it.
func (as *AddressSpace) Release() int {
	as.keys = as.rev.AppendKeys(as.keys[:0])
	slices.Sort(as.keys) // ascending PPN
	freed := 0
	for _, k := range as.keys {
		e := as.rev.Ref(k)
		if e.foreign {
			continue
		}
		n := 1
		if pte, ok := as.Table.Lookup(as.arena.buf[e.off]); ok && pte.Large {
			n = PagesPerLarge
		}
		for i := 0; i < n; i++ {
			as.alloc.Free(PPN(k) + PPN(i))
			freed++
		}
	}
	as.rev.Reset()
	as.arena.reset()
	return freed
}

// Synonyms returns all VPNs currently mapped to ppn. The slice aliases the
// space's internal arena: treat it as read-only and don't hold it across
// mapping changes.
func (as *AddressSpace) Synonyms(ppn PPN) []VPN {
	e := as.rev.Ref(uint64(ppn))
	if e == nil {
		return nil
	}
	return as.arena.buf[e.off : e.off+e.n : e.off+e.n]
}

// AllMappings returns a snapshot of the reverse map (PPN -> VPNs). The
// returned map and slices are the caller's to keep: they never alias the
// space's internal state.
func (as *AddressSpace) AllMappings() map[PPN][]VPN {
	out := make(map[PPN][]VPN, as.rev.Len())
	for _, k := range as.rev.AppendKeys(nil) {
		e := as.rev.Ref(k)
		out[PPN(k)] = append([]VPN(nil), as.arena.buf[e.off:e.off+e.n]...)
	}
	return out
}

// Protect changes the permission of va's page. It reports whether the page
// was mapped. Callers are responsible for the ensuing TLB shootdown.
func (as *AddressSpace) Protect(va VAddr, perm Perm) bool {
	vpn := va.Page()
	pte, ok := as.Table.Lookup(vpn)
	if !ok {
		return false
	}
	as.Table.Map(vpn, pte.PPN, perm)
	return true
}

// Unmap removes the mapping for va's page, freeing the frame when the last
// synonym for it goes away. It reports whether the page was mapped.
func (as *AddressSpace) Unmap(va VAddr) bool {
	vpn := va.Page()
	pte, ok := as.Table.Lookup(vpn)
	if !ok {
		return false
	}
	as.Table.Unmap(vpn)
	e := as.rev.Ref(uint64(pte.PPN))
	if e != nil {
		vs := as.arena.buf[e.off : e.off+e.n]
		for i := range vs {
			if vs[i] == vpn {
				copy(vs[i:], vs[i+1:])
				e.n--
				break
			}
		}
	}
	if e == nil || e.n == 0 {
		foreign := e != nil && e.foreign
		if e != nil {
			as.arena.release(e.off, e.cls)
			as.rev.Delete(uint64(pte.PPN))
		}
		if !foreign {
			as.alloc.Free(pte.PPN)
		}
	}
	return true
}

func (as *AddressSpace) String() string {
	return fmt.Sprintf("as{asid: %d, pages: %d}", as.ID, as.Table.Pages())
}
