package experiments

import (
	"context"
	"fmt"

	"vcache/internal/core"
	"vcache/internal/memory"
	"vcache/internal/report"
	"vcache/internal/workloads"
)

// The tenant-churn experiment measures what the paper's single-process
// evaluation cannot: how each design behaves when address spaces churn
// through the hardware's ASID slots faster than their working sets decay.
// Kernels from N tenants arrive open-loop (arrivals never wait for
// service); every slot rollover retires the previous occupant's
// translations and cached data GPU-wide. The figure reports, per design ×
// tenant count × IOMMU bandwidth, how much state each rollover kills, the
// shared-TLB shootdown and queueing traffic, and the host-visible queueing
// that service time induces under the open-loop arrival process.
//
// Each grid point builds a fresh System and replays the launch schedule
// serially, so points are independent and the figure is byte-identical at
// any -parallel / -intra-parallel setting.

// ChurnPoint is one (design, tenants, IOMMU bandwidth) grid point.
type ChurnPoint struct {
	Design  string
	Tenants int
	IOMMUBW int // IOMMU lookup-port width (lookups/cycle)

	Launches int
	Retires  int // launches that rolled an ASID slot over

	ServiceCycles uint64 // total simulated kernel service time
	// RetiredEntries sums RetireStats.Total() over every rollover: TLB
	// entries, FBT entries and cache lines retired ASID-wide.
	RetiredEntries int
	// ResidentAtRetire sums, over rollovers, the GPU-wide residency
	// (TLB entries + FBT entries + cache lines) at the moment of the
	// switch — the state a scan-based invalidation would have walked.
	ResidentAtRetire int
	Shootdowns       uint64 // shared-TLB shootdown operations
	IOMMUQueueDelay  uint64 // serialization cycles at the IOMMU lookup port

	// Host-side open-loop queueing: completion C_i = max(A_i, C_{i-1}) + S_i.
	MeanWaitCycles float64 // mean of C_i - A_i - S_i (time spent queued)
	PeakQueueDepth int     // max launches in-system at any arrival
}

// RunChurn replays the churn plan against one design and returns the grid
// point. The config's CU count is forced to the plan's so every kernel's
// warps land on real CUs.
func RunChurn(cfg core.Config, p workloads.ChurnParams) ChurnPoint {
	p = p.Normalized()
	cfg.GPU.NumCUs = p.NumCUs
	pl := workloads.BuildChurnPlan(p)
	sys := core.MustNew(cfg)

	// The cross-tenant read-only pages: one frame each, installed into
	// every fresh slot's space at the shared base (synonym stress — many
	// spaces, one frame).
	shared := make([]memory.PPN, p.SharedPages)
	for i := range shared {
		shared[i] = sys.Frames().Alloc()
	}

	pt := ChurnPoint{
		Design: cfg.Name, Tenants: p.Tenants, IOMMUBW: cfg.IOMMU.LookupsPerCycle,
		Launches: len(pl.Launches), Retires: pl.Retires(),
	}
	completions := make([]uint64, 0, len(pl.Launches))
	var waits []float64
	var prevDone uint64
	for _, l := range pl.Launches {
		if l.Retire != 0 {
			pt.ResidentAtRetire += residency(sys, cfg)
			pt.RetiredEntries += sys.RetireASID(l.Retire).Total()
		}
		if l.FreshSlot {
			sp := sys.SpaceFor(l.ASID)
			for i, ppn := range shared {
				sp.MapFrame(workloads.ChurnSharedBase+memory.VAddr(i)*memory.PageSize, ppn, memory.PermRead)
			}
		}
		start := sys.Engine().Now()
		if _, err := sys.RunContext(context.Background(), pl.KernelTrace(l)); err != nil {
			panic(err) // ErrDeadlock: a modeling bug, matching Suite.run
		}
		service := sys.Engine().Now() - start
		pt.ServiceCycles += service

		// Open-loop backlog: the kernel starts when the device frees up or
		// at its arrival, whichever is later.
		begin := l.Arrival
		if prevDone > begin {
			begin = prevDone
		}
		done := begin + service
		waits = append(waits, float64(begin-l.Arrival))
		depth := 1 // this launch
		for _, c := range completions {
			if c > l.Arrival {
				depth++
			}
		}
		if depth > pt.PeakQueueDepth {
			pt.PeakQueueDepth = depth
		}
		completions = append(completions, done)
		prevDone = done
	}
	pt.MeanWaitCycles = mean(waits)
	pt.Shootdowns = sys.IOMMU().TLB().Stats().Shootdowns
	pt.IOMMUQueueDelay = sys.IOMMU().Stats().QueueDelay
	return pt
}

// residency sums every translation and cached line currently resident
// GPU-wide — the structures a scan-based bulk invalidation would walk.
func residency(sys *core.System, cfg core.Config) int {
	n := sys.IOMMU().TLB().Len() + sys.L2().Resident()
	if f := sys.FBT(); f != nil {
		n += f.Len()
	}
	for cu := 0; cu < cfg.GPU.NumCUs; cu++ {
		n += sys.PerCUTLB(cu).Len() + sys.L1(cu).Resident()
	}
	return n
}

// churnDesigns lists the grid's design axis.
func churnDesigns() []core.Config {
	return []core.Config{core.DesignBaseline512(), core.DesignVCOpt(), core.DesignVCOptDSR()}
}

// churnBandwidths is the IOMMU lookup-port axis.
var churnBandwidths = []int{1, 4}

// churnTenants resolves the tenant-count axis.
func (s *Suite) churnTenants() []int {
	if len(s.ChurnTenants) > 0 {
		return s.ChurnTenants
	}
	return []int{2, 8, 24}
}

// churnParams sizes one grid point's scenario: launches scale with the
// tenant count so every point sees comparable per-tenant reuse.
func (s *Suite) churnParams(tenants int) workloads.ChurnParams {
	p := workloads.DefaultChurnParams()
	p.Tenants = tenants
	p.Launches = 2 * tenants
	p.Seed = s.Params.Normalized().Seed
	return p
}

// Churn runs the tenant-churn grid. Grid points are independent fresh
// systems, executed on the suite's worker pool; results are byte-identical
// at any worker count.
func (s *Suite) Churn() ([]ChurnPoint, string) {
	tenants := s.churnTenants()
	designs := churnDesigns()
	type job struct {
		cfg core.Config
		p   workloads.ChurnParams
	}
	var jobs []job
	for _, cfg := range designs {
		for _, t := range tenants {
			for _, bw := range churnBandwidths {
				c := cfg.WithIOMMUBandwidth(bw)
				if bw != 1 {
					c.Name = fmt.Sprintf("%s (bw %d)", cfg.Name, bw)
				}
				if s.BatchedTranslation {
					c.BatchedTranslation = true
				}
				jobs = append(jobs, job{cfg: c, p: s.churnParams(t)})
			}
		}
	}
	points := make([]ChurnPoint, len(jobs))
	_ = forEachLimit(len(jobs), s.workers(), func(i int) error {
		points[i] = RunChurn(jobs[i].cfg, jobs[i].p)
		return nil
	})
	t := &report.Table{
		Title: "Tenant churn: open-loop multi-tenant kernel launches with ASID-slot\n" +
			"rollover. Epoch-based retirement makes each rollover O(1) regardless of\n" +
			"how much state (\"resident\") the dying tenant left behind.",
		Headers: []string{"Design", "Tenants", "BW", "Retires", "Retired", "Resident",
			"Shootdowns", "IOMMU qd", "Mean wait", "Peak depth"},
	}
	for _, p := range points {
		t.AddRow(p.Design, report.I(uint64(p.Tenants)), report.I(uint64(p.IOMMUBW)),
			report.I(uint64(p.Retires)), report.I(uint64(p.RetiredEntries)),
			report.I(uint64(p.ResidentAtRetire)), report.I(p.Shootdowns),
			report.I(p.IOMMUQueueDelay), report.F2(p.MeanWaitCycles),
			report.I(uint64(p.PeakQueueDepth)))
	}
	return points, t.Render()
}

// WriteChurnCSV renders the churn grid as CSV.
func WriteChurnCSV(points []ChurnPoint) string {
	out := "design,tenants,iommu_bw,launches,retires,service_cycles,retired_entries," +
		"resident_at_retire,shootdowns,iommu_queue_delay,mean_wait_cycles,peak_queue_depth\n"
	for _, p := range points {
		out += fmt.Sprintf("%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.2f,%d\n",
			p.Design, p.Tenants, p.IOMMUBW, p.Launches, p.Retires, p.ServiceCycles,
			p.RetiredEntries, p.ResidentAtRetire, p.Shootdowns, p.IOMMUQueueDelay,
			p.MeanWaitCycles, p.PeakQueueDepth)
	}
	return out
}
