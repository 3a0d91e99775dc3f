// Package memory provides the virtual-memory substrate: address types,
// 4KB pages and 128B cache lines, a flat 4-level page table with
// per-level physical node addresses (so page-walk caches can be modeled),
// a physical frame allocator, and demand-mapped address spaces with
// synonym support.
package memory

// Address geometry. The paper's system uses 4KB pages and 128B cache
// lines, giving 32 lines per page (which is why the FBT bit vector is
// 32 bits wide).
const (
	PageShift    = 12
	PageSize     = 1 << PageShift
	LineShift    = 7
	LineSize     = 1 << LineShift
	LinesPerPage = PageSize / LineSize // 32
)

// The modeled virtual address space: the four 9-bit levels of the
// page table over 4KB pages give 36-bit VPNs and 48-bit addresses. A
// larger address would alias a smaller one in the table, so inputs
// carrying one are rejected before they reach it.
const (
	VPNBits = Levels * bitsPerLevel // 36
	VABits  = PageShift + VPNBits   // 48
)

// VAddr is a virtual byte address.
type VAddr uint64

// PAddr is a physical byte address.
type PAddr uint64

// VPN is a virtual page number.
type VPN uint64

// PPN is a physical page number.
type PPN uint64

// ASID identifies a virtual address space.
type ASID uint16

// Page returns the VPN containing the address.
func (a VAddr) Page() VPN { return VPN(a >> PageShift) }

// Line returns the virtual line address (address of the containing 128B
// line).
func (a VAddr) Line() VAddr { return a &^ (LineSize - 1) }

// LineIndex returns the index (0..31) of the address's line within its page.
func (a VAddr) LineIndex() int { return int(a>>LineShift) & (LinesPerPage - 1) }

// Offset returns the byte offset within the page.
func (a VAddr) Offset() uint64 { return uint64(a) & (PageSize - 1) }

// Page returns the PPN containing the address.
func (a PAddr) Page() PPN { return PPN(a >> PageShift) }

// Line returns the physical line address.
func (a PAddr) Line() PAddr { return a &^ (LineSize - 1) }

// LineIndex returns the index (0..31) of the address's line within its page.
func (a PAddr) LineIndex() int { return int(a>>LineShift) & (LinesPerPage - 1) }

// Base returns the first byte address of the page.
func (p VPN) Base() VAddr { return VAddr(p) << PageShift }

// Base returns the first byte address of the physical page.
func (p PPN) Base() PAddr { return PAddr(p) << PageShift }

// Perm is a page permission bit set.
type Perm uint8

// Permission bits.
const (
	PermRead  Perm = 1 << iota // page may be read
	PermWrite                  // page may be written
)

// Allows reports whether p grants the access described by write.
func (p Perm) Allows(write bool) bool {
	if write {
		return p&PermWrite != 0
	}
	return p&PermRead != 0
}

func (p Perm) String() string {
	switch {
	case p&PermRead != 0 && p&PermWrite != 0:
		return "rw"
	case p&PermRead != 0:
		return "r-"
	case p&PermWrite != 0:
		return "-w"
	default:
		return "--"
	}
}
