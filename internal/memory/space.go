package memory

import (
	"fmt"
	"slices"

	"vcache/internal/flatmap"
)

// frameRef counts one frame's mappings in an address space: n pages map
// it, a 2MB mapping counting once under its base frame (large). A foreign
// frame is owned elsewhere (MapFrame) and never freed here.
type frameRef struct {
	n       int32
	large   bool
	foreign bool
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

	// refs maps uint64(PPN) -> its frameRef: Unmap frees a frame with
	// its last mapping, Release every frame the space allocated. The page
	// table is the one record of what maps where.
	refs flatmap.Map[frameRef]
	keys []uint64 // Release's sorted frame keys, kept for the next Release

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
// the frame references, or after Discard.
func (as *AddressSpace) Reuse(id ASID) {
	as.ID = id
	as.Table.reuse()
	as.defaultPerm = PermRead | PermWrite
}

// Discard drops every mapping without freeing a frame, for an owner that
// takes every frame back at once (FrameAlloc.Reset). Like Release, it
// leaves the space fit only for Reuse, and it keeps the tables' storage.
func (as *AddressSpace) Discard() { as.refs.Reset() }

// SetDefaultPerm sets the permission used for demand-mapped pages.
func (as *AddressSpace) SetDefaultPerm(p Perm) { as.defaultPerm = p }

// ref counts one more mapping of ppn and returns its record, valid until
// the next change to the references.
func (as *AddressSpace) ref(ppn PPN) *frameRef {
	r := as.refs.Upsert(uint64(ppn))
	r.n++
	return r
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
	as.ref(ppn)
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
	as.ref(ppn).large = true
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
	as.ref(tgt.PPN)
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
	as.ref(ppn).foreign = true
	return PTE{PPN: ppn, Perm: perm, Valid: true}
}

// Release frees every frame the space allocated for itself back to the
// shared allocator (foreign MapFrame frames stay live) and returns how
// many frames were freed: one per 4KB frame, PagesPerLarge per 2MB
// mapping. Frames are freed in ascending PPN order so recycling — and
// therefore every later allocation — is deterministic; the order is
// sorted in a slice the space keeps, so a warm Release allocates nothing.
// The page table's node frames are not freed. The space must not be used
// afterwards, except to Reuse it.
func (as *AddressSpace) Release() int {
	as.keys = as.refs.AppendKeys(as.keys[:0])
	slices.Sort(as.keys) // ascending PPN
	freed := 0
	for _, k := range as.keys {
		r, _ := as.refs.Get(k)
		if r.foreign {
			continue
		}
		n := 1
		if r.large {
			n = PagesPerLarge
		}
		for i := 0; i < n; i++ {
			as.alloc.Free(PPN(k) + PPN(i))
		}
		freed += n
	}
	as.refs.Reset()
	return freed
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
// mapping of it goes away. It reports whether it removed one: a page that
// a 2MB mapping serves is left as it is (the model splits no large page),
// like an unmapped one.
func (as *AddressSpace) Unmap(va VAddr) bool {
	vpn := va.Page()
	pte, ok := as.Table.Lookup(vpn)
	if !ok || pte.Large {
		return false
	}
	as.Table.Unmap(vpn)
	k := uint64(pte.PPN)
	if r := as.refs.Ref(k); r.n > 1 {
		r.n--
	} else if r, _ := as.refs.Delete(k); !r.foreign {
		as.alloc.Free(pte.PPN)
	}
	return true
}

func (as *AddressSpace) String() string {
	return fmt.Sprintf("as{asid: %d, pages: %d}", as.ID, as.Table.Pages())
}
