// Package core assembles the full SoC from the substrate packages and
// implements the paper's MMU designs: the physical-cache baseline with
// per-CU TLBs and a shared IOMMU TLB, the ideal MMU, the proposed
// whole-hierarchy virtual cache (with and without the FBT-as-second-level-
// TLB optimization), and the L1-only virtual cache comparison point. It
// owns the request flows between the GPU front-end, caches, IOMMU, FBT and
// DRAM, and collects the measurements every figure in the evaluation needs.
package core

import (
	"fmt"

	"vcache/internal/cache"
	"vcache/internal/dram"
	"vcache/internal/fbt"
	"vcache/internal/gpu"
	"vcache/internal/iommu"
	"vcache/internal/ptw"
	"vcache/internal/tlb"
)

// MMUKind selects the translation/caching organization.
type MMUKind int

// MMU designs evaluated in the paper.
const (
	// IdealMMU has infinite TLB capacity and bandwidth and zero
	// translation latency (the paper's upper bound).
	IdealMMU MMUKind = iota
	// PhysicalBaseline is the conventional design: per-CU TLBs in front of
	// physically-tagged L1/L2 caches, shared IOMMU TLB, page-table walker.
	PhysicalBaseline
	// VirtualHierarchy is the paper's proposal: virtually-tagged L1 and L2
	// caches, no per-CU TLBs, translation at the IOMMU after L2 misses,
	// FBT for synonyms/coherence/shootdowns.
	VirtualHierarchy
	// L1OnlyVirtual virtualizes only the L1 caches (CPU-style): per-CU
	// TLBs sit between the virtual L1s and a physical L2.
	L1OnlyVirtual
)

func (k MMUKind) String() string {
	switch k {
	case IdealMMU:
		return "ideal-mmu"
	case PhysicalBaseline:
		return "physical-baseline"
	case VirtualHierarchy:
		return "virtual-hierarchy"
	case L1OnlyVirtual:
		return "l1-only-virtual"
	default:
		return fmt.Sprintf("MMUKind(%d)", int(k))
	}
}

// FaultPolicy says what the system does when a read-write synonym or
// permission violation is detected.
type FaultPolicy int

// Fault policies.
const (
	// CountFaults records the fault and completes the request (so
	// experiments keep running); the paper's hardware would raise an
	// exception handled by the CPU.
	CountFaults FaultPolicy = iota
	// PanicOnFault panics, for tests that must not fault silently.
	PanicOnFault
)

// Latencies are the fixed one-way / access latencies of the SoC, in GPU
// cycles (700 MHz).
type Latencies struct {
	L1Hit     uint64 // L1 cache access
	L2Hit     uint64 // L2 bank access
	PerCUTLB  uint64 // per-CU TLB lookup
	CUToL2    uint64 // dance-hall network, one way
	CUToIOMMU uint64 // per-CU TLB miss request, one way (includes the
	// PCIe-protocol adder translation requests pay even on-die)
	L2ToIOMMU uint64 // GPU L2 to FBT/IOMMU, one way (paper: 10)
}

// DefaultLatencies returns the latencies used throughout the evaluation.
func DefaultLatencies() Latencies {
	return Latencies{
		L1Hit:     1,
		L2Hit:     20,
		PerCUTLB:  1,
		CUToL2:    10,
		CUToIOMMU: 50,
		L2ToIOMMU: 10,
	}
}

// Config describes a full system.
type Config struct {
	Name string // design name for reports
	Kind MMUKind

	GPU gpu.Config
	L1  cache.Config // per-CU L1
	L2  cache.Config // shared L2
	// L2BankPorts is the per-bank admission rate (accesses/cycle).
	L2BankPorts int

	PerCUTLB tlb.Config // used by PhysicalBaseline and L1OnlyVirtual
	// PerCUTLB2 adds a private second-level TLB behind each per-CU TLB
	// (the §3.2 "larger (or multi-level) per-CU TLBs" alternative).
	// Zero-valued = absent.
	PerCUTLB2 tlb.Config
	// PerCUTLB2Latency is the second-level lookup time in cycles.
	PerCUTLB2Latency uint64
	IOMMU            iommu.Config
	FBT              fbt.Config
	// UseFBTSecondLevel consults the FBT on shared-TLB misses (VC With OPT).
	UseFBTSecondLevel bool
	// InvFilter enables the per-CU L1 invalidation filters of §4.2.
	InvFilter bool
	// ASIDTags extends virtual-cache tags (and the FBT) with address-space
	// ids, the paper's §4.3 multi-process support: context switches then
	// keep cache contents, and homonyms can never alias. Without it, a
	// context switch flushes the virtual caches.
	ASIDTags bool
	// DynamicSynonymRemap enables the §4.3 per-CU remapping tables that
	// translate active non-leading (synonym) pages to their leading pages
	// before the L1 lookup, eliminating repeated synonym replays.
	DynamicSynonymRemap bool
	// RemapEntries sizes each per-CU remap table (default 32).
	RemapEntries int

	DRAM dram.Config
	Lat  Latencies

	Faults FaultPolicy
	// LargePages backs the workload with 2MB pages instead of 4KB (the
	// §3.2/§4.3 large-page discussion): TLB entries then cover 512 pages
	// and the FBT tracks large pages at 4KB-subpage granularity.
	LargePages bool
	// TrackLifetimes records TLB-entry and cache-line lifetime CDFs
	// (appendix figure); costs some memory. It only observes: the CDFs
	// sample capacity evictions and line or page invalidations, and leave
	// out entries retired by a bulk invalidation (FlushGPU, RetireASID,
	// context switches), as they leave out entries still resident at the
	// end of a run.
	TrackLifetimes bool
	// ProbeResidency classifies each per-CU TLB miss by where the data
	// currently resides (L1/L2/memory) — Figure 2's breakdown.
	ProbeResidency bool
	// BatchedTranslation switches the front end to warp-level batched
	// translation (TranslateLines): one per-CU TLB probe per distinct page
	// of a warp's coalesced line set, hits peeled inline, and the residual
	// miss set bulk-submitted to the IOMMU. A deliberately different — but
	// equally deterministic — event schedule than the per-line path, owned
	// by SimVersion; see DESIGN.md. No-op for VirtualHierarchy and
	// IdealMMU, whose designs have nothing to batch.
	BatchedTranslation bool
}

// DefaultConfig returns the Table 1 baseline system (Baseline 512).
func DefaultConfig() Config {
	return Config{
		Name: "Baseline 512",
		Kind: PhysicalBaseline,
		GPU:  gpu.DefaultConfig(),
		L1: cache.Config{
			SizeBytes: 32 * 1024,
			LineBytes: 128,
			Assoc:     8,
			Policy:    cache.WriteThroughNoAllocate,
		},
		L2: cache.Config{
			SizeBytes: 2 << 20,
			LineBytes: 128,
			Assoc:     16,
			Banks:     8,
			Policy:    cache.WriteBack,
		},
		L2BankPorts: 1,
		PerCUTLB:    tlb.Config{Entries: 32}, // fully associative
		IOMMU:       iommu.DefaultConfig(),
		FBT:         fbt.DefaultConfig(),
		InvFilter:   true,
		DRAM:        dram.DefaultConfig(),
		Lat:         DefaultLatencies(),
	}
}

// Design presets matching Table 2 and the comparison figures.

// DesignIdeal returns the IDEAL MMU configuration.
func DesignIdeal() Config {
	c := DefaultConfig()
	c.Name = "IDEAL MMU"
	c.Kind = IdealMMU
	return c
}

// DesignBaseline512 returns the small-IOMMU-TLB baseline (32-entry per-CU
// TLBs, 512-entry shared TLB, 1 lookup/cycle).
func DesignBaseline512() Config { return DefaultConfig() }

// DesignBaseline16K returns the large-IOMMU-TLB baseline.
func DesignBaseline16K() Config {
	c := DefaultConfig()
	c.Name = "Baseline 16K"
	c.IOMMU.TLB = tlb.Config{Entries: 16384, Assoc: 8}
	return c
}

// DesignBaselineLargePerCU returns the Figure 10 comparator: 128-entry
// fully-associative per-CU TLBs with a 16K shared TLB.
func DesignBaselineLargePerCU() Config {
	c := DesignBaseline16K()
	c.Name = "Baseline 128/16K"
	c.PerCUTLB = tlb.Config{Entries: 128}
	return c
}

// DesignVC returns the proposal without the second-level-TLB optimization
// (VC W/O OPT): whole-hierarchy virtual caches, 512-entry shared TLB.
func DesignVC() Config {
	c := DefaultConfig()
	c.Name = "VC W/O OPT"
	c.Kind = VirtualHierarchy
	c.PerCUTLB = tlb.Config{}
	return c
}

// DesignVCOpt returns the full proposal (VC With OPT): the FBT also serves
// as a second-level TLB behind the 512-entry shared TLB.
func DesignVCOpt() Config {
	c := DesignVC()
	c.Name = "VC With OPT"
	c.UseFBTSecondLevel = true
	return c
}

// DesignVCOptDSR returns the forward-looking configuration of §4.3: the
// full proposal plus ASID tags and dynamic synonym remapping, for
// multi-process GPU systems where synonyms and homonyms are common.
func DesignVCOptDSR() Config {
	c := DesignVCOpt()
	c.Name = "VC With OPT+DSR"
	c.ASIDTags = true
	c.DynamicSynonymRemap = true
	return c
}

// DesignBaselineTwoLevelTLB returns a baseline with private two-level
// TLBs: 32-entry L1 backed by a 256-entry 4-way L2 per CU, over the 16K
// shared TLB (the multi-level alternative of §3.2).
func DesignBaselineTwoLevelTLB() Config {
	c := DesignBaseline16K()
	c.Name = "Baseline 2-level TLB"
	c.PerCUTLB2 = tlb.Config{Entries: 256, Assoc: 4}
	c.PerCUTLB2Latency = 2
	return c
}

// DesignL1OnlyVC returns the L1-only virtual cache design with the given
// per-CU TLB entry count (32 or 128 in Figure 11).
func DesignL1OnlyVC(tlbEntries int) Config {
	c := DesignBaseline16K()
	c.Name = fmt.Sprintf("L1-Only VC (%d)", tlbEntries)
	c.Kind = L1OnlyVirtual
	c.PerCUTLB = tlb.Config{Entries: tlbEntries}
	return c
}

// Design is one named entry of the design registry.
type Design struct {
	Name string        // CLI and wire name, e.g. "vc-opt"
	New  func() Config // the preset's constructor
}

// Designs is the design registry: every named preset, in paper order.
// vcsim (including its multi-design comparison, vcsim -design a,b,c) and
// the api/v1 job schema resolve design names through it.
var Designs = []Design{
	{"ideal", DesignIdeal},
	{"baseline-512", DesignBaseline512},
	{"baseline-16k", DesignBaseline16K},
	{"baseline-large-tlb", DesignBaselineLargePerCU},
	{"baseline-2level", DesignBaselineTwoLevelTLB},
	{"vc", DesignVC},
	{"vc-opt", DesignVCOpt},
	{"vc-opt-dsr", DesignVCOptDSR},
	{"l1-only-vc-32", func() Config { return DesignL1OnlyVC(32) }},
	{"l1-only-vc-128", func() Config { return DesignL1OnlyVC(128) }},
}

// DesignByName returns the registered preset with exactly this name.
func DesignByName(name string) (Config, bool) {
	for _, d := range Designs {
		if d.Name == name {
			return d.New(), true
		}
	}
	return Config{}, false
}

// WithPerCUTLB returns cfg with the per-CU TLB entry count replaced
// (0 = infinite), used by the Figure 2 sweep.
func (c Config) WithPerCUTLB(entries int) Config {
	c.PerCUTLB = tlb.Config{Entries: entries}
	if entries > 0 {
		c.Name = fmt.Sprintf("%s (per-CU TLB %d)", c.Name, entries)
	} else {
		c.Name = fmt.Sprintf("%s (per-CU TLB inf)", c.Name)
	}
	return c
}

// WithIOMMUBandwidth returns cfg with the shared-TLB lookup bandwidth
// replaced (0 = unlimited), used by the Figure 3/5 sweeps.
func (c Config) WithIOMMUBandwidth(perCycle int) Config {
	c.IOMMU.LookupsPerCycle = perCycle
	return c
}

// ConfigError reports an invalid Config: which field (or field group) is
// wrong and why. New and Run return it (wrapped in nothing) so callers can
// distinguish configuration mistakes from runtime failures with errors.As.
type ConfigError struct {
	Field  string // offending field, e.g. "GPU.NumCUs"
	Reason string
}

func (e *ConfigError) Error() string {
	return "core: invalid config: " + e.Field + ": " + e.Reason
}

// Validate checks internal consistency. The returned error, when non-nil,
// is a *ConfigError.
func (c Config) Validate() error {
	if c.GPU.NumCUs <= 0 || c.GPU.NumCUs >= 1<<cuArgBits {
		return &ConfigError{Field: "GPU.NumCUs", Reason: fmt.Sprintf("must be in [1, %d), got %d", 1<<cuArgBits, c.GPU.NumCUs)}
	}
	if c.L1.LineBytes != c.L2.LineBytes {
		return &ConfigError{Field: "L1.LineBytes", Reason: fmt.Sprintf("L1 line %dB != L2 line %dB", c.L1.LineBytes, c.L2.LineBytes)}
	}
	switch c.Kind {
	case PhysicalBaseline, L1OnlyVirtual:
		// per-CU TLBs required (possibly infinite).
	case VirtualHierarchy:
		if c.FBT.Entries <= 0 {
			return &ConfigError{Field: "FBT.Entries", Reason: "virtual hierarchy needs an FBT"}
		}
	case IdealMMU:
	default:
		return &ConfigError{Field: "Kind", Reason: fmt.Sprintf("unknown MMU kind %d", int(c.Kind))}
	}
	if c.Walkers() <= 0 {
		return &ConfigError{Field: "IOMMU.Walker.Threads", Reason: fmt.Sprintf("walker threads = %d", c.Walkers())}
	}
	return nil
}

// Walkers returns the configured PTW thread count.
func (c Config) Walkers() int { return c.IOMMU.Walker.Threads }

// DefaultWalker re-exports the walker defaults for table printing.
func DefaultWalker() ptw.Config { return ptw.DefaultConfig() }
