package workloads

import (
	"strconv"
	"strings"

	"vcache/internal/memory"
	"vcache/internal/trace"
)

// The open-loop multi-tenant churn generator models the regime ROADMAP
// item 4 calls "millions of users": N tenants (N much larger than the
// hardware's ASID slots) submit small kernels at arrival times that do not
// wait for service. Every tenant maps its kernel footprint at the SAME
// virtual addresses (the homonym-stress case for virtual caches), each
// kernel switch rolls an ASID slot over to a new tenant — retiring the
// slot's translations and cached data across the GPU — and a set of
// read-only pages is physically shared by all tenants (synonym stress:
// the same frame reached through many address spaces).
//
// The plan is pure data, derived deterministically from ChurnParams; the
// driver (internal/experiments) owns the simulation loop.

// Virtual layout every tenant shares: private kernel footprints at one
// base, the cross-tenant shared frames at another.
const (
	ChurnPrivateBase = memory.VAddr(256 << 20)
	ChurnSharedBase  = memory.VAddr(768 << 20)
)

// ChurnParams sizes the churn scenario.
type ChurnParams struct {
	// Tenants is the number of distinct address spaces contending for the
	// hardware's ASID slots (Tenants >> ASIDSlots makes rollover constant).
	Tenants int `json:"tenants,omitempty"`
	// Launches is the total number of kernel launches across all tenants.
	Launches int `json:"launches,omitempty"`
	// ASIDSlots is the hardware ASID-slot count; a launch by a tenant with
	// no slot retires the least-recently-used slot first.
	ASIDSlots int `json:"asid_slots,omitempty"`
	// KernelPages is each kernel's private 4KB-page footprint.
	KernelPages int `json:"kernel_pages,omitempty"`
	// SharedPages is the count of read-only pages physically shared by all
	// tenants.
	SharedPages int `json:"shared_pages,omitempty"`
	// NumCUs and WarpsPerCU shape the warp-context pool of each kernel.
	NumCUs     int `json:"num_cus,omitempty"`
	WarpsPerCU int `json:"warps_per_cu,omitempty"`
	// Seed drives tenant selection, arrival jitter and access patterns.
	Seed uint64 `json:"seed,omitempty"`
	// ArrivalPeriod is the mean open-loop inter-arrival gap in cycles.
	ArrivalPeriod uint64 `json:"arrival_period,omitempty"`
}

// DefaultChurnParams is a laptop-scale churn scenario: 24 tenants over 4
// ASID slots, small kernels, constant rollover.
func DefaultChurnParams() ChurnParams {
	return ChurnParams{
		Tenants: 24, Launches: 48, ASIDSlots: 4,
		KernelPages: 32, SharedPages: 8,
		NumCUs: 4, WarpsPerCU: 2,
		Seed: 42, ArrivalPeriod: 20000,
	}
}

// Normalized returns p with zero or negative fields replaced by defaults.
func (p ChurnParams) Normalized() ChurnParams {
	d := DefaultChurnParams()
	if p.Tenants <= 0 {
		p.Tenants = d.Tenants
	}
	if p.Launches <= 0 {
		p.Launches = d.Launches
	}
	if p.ASIDSlots <= 0 {
		p.ASIDSlots = d.ASIDSlots
	}
	if p.ASIDSlots > p.Tenants {
		p.ASIDSlots = p.Tenants
	}
	if p.KernelPages <= 0 {
		p.KernelPages = d.KernelPages
	}
	if p.SharedPages < 0 {
		p.SharedPages = 0
	}
	if p.NumCUs <= 0 {
		p.NumCUs = d.NumCUs
	}
	if p.WarpsPerCU <= 0 {
		p.WarpsPerCU = d.WarpsPerCU
	}
	if p.Seed == 0 {
		p.Seed = d.Seed
	}
	if p.ArrivalPeriod == 0 {
		p.ArrivalPeriod = d.ArrivalPeriod
	}
	return p
}

// ChurnLaunch is one kernel launch in arrival order.
type ChurnLaunch struct {
	Seq    int         // launch index (0-based)
	Tenant int         // which tenant submitted it
	ASID   memory.ASID // hardware slot the kernel runs under (1..ASIDSlots)
	// Retire is non-zero when the slot must roll over first: the previous
	// occupant's translations and cached data are dead and the driver
	// performs an ASID-wide retirement before this launch.
	Retire memory.ASID
	// FreshSlot marks the slot as newly (re)assigned to this tenant: the
	// driver must re-install the shared mappings into the fresh space.
	FreshSlot bool
	// Arrival is the open-loop arrival time in cycles; arrivals never wait
	// for service.
	Arrival uint64
	// Name is the launch's kernel trace name, "churn.t<tenant>.k<seq>"
	// with the tenant at least two digits and the sequence at least three.
	// BuildChurnPlan formats every launch's name into one string that the
	// launches slice, so building a kernel formats nothing.
	Name string
}

// ChurnPlan is a deterministic multi-tenant launch schedule.
type ChurnPlan struct {
	Params   ChurnParams
	Launches []ChurnLaunch
}

// BuildChurnPlan derives the launch schedule: tenants drawn uniformly,
// LRU ASID-slot assignment with rollover, arrivals jittered around the
// mean period. Identical params produce identical plans.
func BuildChurnPlan(p ChurnParams) ChurnPlan {
	p = p.Normalized()
	r := newRNG(p.Seed ^ 0xc0ffee_c0ffee)
	type slot struct {
		tenant int
		used   int // last-use sequence, for LRU
	}
	slots := make([]slot, p.ASIDSlots) // slot i holds ASID i+1
	for i := range slots {
		slots[i].tenant = -1
	}
	pl := ChurnPlan{Params: p, Launches: make([]ChurnLaunch, 0, p.Launches)}
	var clock uint64
	for seq := 0; seq < p.Launches; seq++ {
		clock += 1 + uint64(r.n(int(2*p.ArrivalPeriod)))
		tenant := r.n(p.Tenants)
		l := ChurnLaunch{Seq: seq, Tenant: tenant, Arrival: clock}
		// Reuse the tenant's slot if it still holds one; otherwise evict
		// the least-recently-used slot.
		pick := -1
		for i := range slots {
			if slots[i].tenant == tenant {
				pick = i
				break
			}
		}
		if pick < 0 {
			for i := range slots {
				if pick < 0 || slots[i].used < slots[pick].used {
					pick = i
				}
			}
			if slots[pick].tenant >= 0 {
				l.Retire = memory.ASID(pick + 1)
			}
			l.FreshSlot = true
			slots[pick].tenant = tenant
		}
		slots[pick].used = seq + 1
		l.ASID = memory.ASID(pick + 1)
		pl.Launches = append(pl.Launches, l)
	}
	var names strings.Builder
	names.Grow(len(pl.Launches) * len("churn.t00.k000"))
	var scratch [32]byte
	for _, l := range pl.Launches {
		names.Write(appendLaunchName(scratch[:0], l))
	}
	all := names.String()
	for i := range pl.Launches {
		n := len(appendLaunchName(scratch[:0], pl.Launches[i]))
		pl.Launches[i].Name, all = all[:n], all[n:]
	}
	return pl
}

// appendLaunchName appends l's kernel trace name to b: "churn.t%02d.k%03d"
// of its tenant and sequence number.
func appendLaunchName(b []byte, l ChurnLaunch) []byte {
	b = append(b, "churn.t"...)
	b = appendPadded(b, l.Tenant, 2)
	b = append(b, ".k"...)
	return appendPadded(b, l.Seq, 3)
}

// appendPadded appends the decimal form of n >= 0, zero-padded to width
// digits, as fmt's %0<width>d does.
func appendPadded(b []byte, n, width int) []byte {
	for w, lim := width, 1; w > 1; w-- {
		lim *= 10
		if n < lim {
			b = append(b, '0')
		}
	}
	return strconv.AppendInt(b, int64(n), 10)
}

// Retires counts the launches that roll an ASID slot over.
func (pl ChurnPlan) Retires() int {
	n := 0
	for _, l := range pl.Launches {
		if l.Retire != 0 {
			n++
		}
	}
	return n
}

// KernelTrace materializes one launch's kernel: strided streaming over the
// tenant's private footprint (every tenant at the same virtual base — the
// homonym case), stores dirtying a quarter of the lines, and read-only
// loads of the cross-tenant shared pages (the synonym case). The access
// pattern depends on the tenant and launch index, so replayed tenants
// re-touch their pages in fresh orders.
func (pl ChurnPlan) KernelTrace(l ChurnLaunch) *trace.Trace {
	p := pl.Params
	return pl.KernelInto(trace.NewBuilder("", 0, p.NumCUs, p.WarpsPerCU), l)
}

// KernelInto builds launch l's kernel, the trace KernelTrace returns, into
// b, a materializing Builder of any shape: it resets b to NumCUs x
// WarpsPerCU warp contexts under l's name and returns b's Build. Every
// kernel of a plan has the same shape and lane count, so a replay that
// builds each launch into one Builder allocates its instruction slices
// and lane block for the first launch only, and nothing for the name; the
// trace of one launch is invalid once the next is built.
func (pl ChurnPlan) KernelInto(b *trace.Builder, l ChurnLaunch) *trace.Trace {
	p := pl.Params
	b.Reset(l.Name, l.ASID, p.NumCUs, p.WarpsPerCU)
	r := newRNG(p.Seed ^ uint64(l.Tenant)*0x9e3779b97f4a7c15 ^ uint64(l.Seq)*0xbf58476d1ce4e5b9)
	warps := b.NumWarps()
	for wi := 0; wi < warps; wi++ {
		w := b.Warp()
		// Each warp walks a rotated slice of the private footprint so the
		// warps collectively cover every page with some overlap.
		start := r.n(p.KernelPages)
		span := p.KernelPages/warps + 2
		for i := 0; i < span; i++ {
			page := (start + i) % p.KernelPages
			base := ChurnPrivateBase + memory.VAddr(page)*memory.PageSize
			off := memory.VAddr(r.n(16)) * 128
			w.Load(base+off, base+off+128, base+off+256, base+off+384)
			if i%4 == 1 {
				w.Store(base + off + 512)
			}
		}
		if p.SharedPages > 0 {
			sp := r.n(p.SharedPages)
			saddr := ChurnSharedBase + memory.VAddr(sp)*memory.PageSize + memory.VAddr(r.n(8))*128
			w.Load(saddr, saddr+128)
		}
	}
	b.Barrier()
	return b.Build()
}
