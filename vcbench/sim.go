package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"vcache/internal/core"
	"vcache/internal/experiments"
	"vcache/internal/trace"
	"vcache/internal/workloads"
)

// simulation is a workload whose operation is one whole simulation on
// freshly built systems, so the modelled caches start empty every sample.
type simulation interface {
	// setup generates the workload's inputs and builds a first system.
	setup(b *bench, c *calls) error
	// sample simulates once.
	sample(b *bench, c *calls) (outcome, error)
}

// outcome is what one sample simulated.
type outcome struct {
	lines    uint64  // simulated coalesced line accesses
	opS      float64 // host seconds of the operation, digest excluded
	runS     float64 // host seconds in the simulating call(s)
	digest   string  // sha256 of the encoded results
	counters map[string]float64
}

// measured is one sample with the host-side cost of it.
type measured struct {
	outcome
	memDelta
	calls *calls
}

// Setups repeat at least setupRepeats times and, when they are quick,
// until setupSeconds have passed (at most setupMaxRepeats), so that the
// median of a setup of a few milliseconds is not one scheduler hiccup.
const (
	setupSeconds    = 0.5
	setupMaxRepeats = 25
)

// runSimulation sets the workload up, discards a warm-up sample, and
// samples it for the run's window, timing the host reference kernel before
// the setups and before each sample. A traced run first samples a third of
// the window untraced, as the reference for the tracing overhead.
func runSimulation(b *bench, sim simulation) error {
	var setups []float64
	var cs []*calls
	if err := b.calibrate(); err != nil {
		return err
	}
	for spent := 0.0; ; {
		c, d, err := b.op("setup", strconv.Itoa(len(setups)), 0, func(c *calls) error { return sim.setup(b, c) })
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d)
		spent += d
		cs = append(cs, c)
		n := len(setups)
		if n >= setupRepeats && (b.smoke || spent >= setupSeconds || n >= setupMaxRepeats) {
			break
		}
	}
	b.rec.dist("setup_s", "s", setups)
	if !b.smoke {
		if _, err := b.sampleFor(sim, 0, "warmup"); err != nil {
			return err
		}
	}

	var ms []measured
	if b.traced {
		ref, err := b.sampleFor(sim, b.window()/3, "ref")
		if err != nil {
			return err
		}
		shares, samples, err := profiled(func() (err error) {
			ms, err = b.sampleFor(sim, b.window(), "sample")
			return err
		})
		if err != nil {
			return err
		}
		if len(ref) == 0 || len(ms) == 0 {
			return fmt.Errorf("every sample failed")
		}
		var runS float64
		for _, m := range ms {
			runS += m.runS
		}
		recordShares(&b.rec, shares, samples, runS)
		b.rec.set("tracing.overhead", "ratio", median(linesPerSecond(ref))/median(linesPerSecond(ms))-1)
	} else {
		var err error
		if ms, err = b.sampleFor(sim, b.window(), "sample"); err != nil {
			return err
		}
	}
	if len(ms) == 0 {
		return fmt.Errorf("every sample failed")
	}

	var ops, runs, allocs, bytes, gcs, pauses []float64
	for _, m := range ms {
		lines := float64(m.lines)
		ops = append(ops, m.opS*1e3)
		runs = append(runs, m.runS)
		allocs = append(allocs, m.mallocs/lines)
		bytes = append(bytes, m.bytes/lines)
		gcs = append(gcs, m.gcs)
		pauses = append(pauses, m.pauseMS)
		cs = append(cs, m.calls)
	}
	b.recordCalls(cs)
	b.rec.dist("lines_per_s", "lines/s", linesPerSecond(ms))
	b.rec.dist("op_p50_ms", "ms", ops)
	b.rec.dist("core.run_s", "s", runs)
	b.rec.dist("allocs_per_line", "allocs", allocs)
	b.rec.dist("heap_bytes_per_line", "B", bytes)
	b.rec.dist("runtime.gc_cycles", "count", gcs)
	b.rec.dist("runtime.gc_pause_ms", "ms", pauses)
	b.recordCounters(ms[len(ms)-1].counters)
	return nil
}

func linesPerSecond(ms []measured) []float64 {
	xs := make([]float64, len(ms))
	for i, m := range ms {
		xs[i] = float64(m.lines) / m.runS
	}
	return xs
}

// sampleFor samples until window has passed, at least once (exactly once
// in a smoke run), and returns the samples that succeeded. The host
// reference kernel runs before each sample, outside the window's clock.
func (b *bench) sampleFor(sim simulation, window time.Duration, label string) ([]measured, error) {
	var ms []measured
	var elapsed time.Duration
	for i := 0; i == 0 || elapsed < window && !b.smoke; i++ {
		if err := b.calibrate(); err != nil {
			return nil, err
		}
		op := label + strconv.Itoa(i)
		b.rec.Attempted++
		start := time.Now()
		m, err := b.measure(sim, op)
		elapsed += time.Since(start)
		if err != nil {
			b.failf("%s: %v", op, err)
			continue
		}
		b.checkDigest(op, m.digest)
		ms = append(ms, m)
	}
	return ms, nil
}

// measure runs one sample, from a collected heap, and reads the allocator
// around it. A panic in the simulator fails the sample instead of the run.
func (b *bench) measure(sim simulation, op string) (measured, error) {
	var m measured
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c, _, err := b.op("sample", op, 0, func(c *calls) (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("panic: %v", p)
			}
		}()
		m.outcome, err = sim.sample(b, c)
		return err
	})
	runtime.ReadMemStats(&after)
	m.memDelta = deltaMem(&before, &after)
	m.calls = c
	return m, err
}

// params fixes a workload's generation parameters for this run: the run's
// seed, and tiny sizes in a smoke run.
func (b *bench) params(p workloads.Params) workloads.Params {
	p.Seed = b.seed
	if b.smoke {
		p.Scale, p.NumCUs, p.WarpsPerCU = 1, 4, 2
	}
	return p
}

func generator(name string) (workloads.Generator, error) {
	g, ok := workloads.ByName(name)
	if !ok {
		return g, fmt.Errorf("unknown workload generator %q", name)
	}
	return g, nil
}

// materialized simulates a trace generated whole in memory.
type materialized struct {
	gen    string
	params workloads.Params
	design core.Config
	tr     *trace.Trace
}

func (m *materialized) setup(b *bench, c *calls) error {
	g, err := generator(m.gen)
	if err != nil {
		return err
	}
	p := b.params(m.params)
	c.time("workloads.build_s", func() error { m.tr = g.Build(p); return nil })
	_, err = c.time("core.new_s", func() (err error) { _, err = core.New(m.design); return err })
	return err
}

func (m *materialized) sample(b *bench, c *calls) (outcome, error) {
	start := time.Now()
	var sys *core.System
	if _, err := c.time("core.new_s", func() (err error) { sys, err = core.New(m.design); return err }); err != nil {
		return outcome{}, err
	}
	var res core.Results
	runS, err := c.time("core.run_s", func() (err error) {
		res, err = sys.RunContext(b.ctx, m.tr, core.WithIntraParallelism(1))
		return err
	})
	if err != nil {
		return outcome{}, err
	}
	return finishSample(c, sys, res, time.Since(start).Seconds(), runS)
}

// streamed replays a chunked trace file through a cursor, so only a window
// of chunks is ever resident.
type streamed struct {
	gen    string
	params workloads.Params
	design core.Config
	path   string
}

func (s *streamed) setup(b *bench, c *calls) error {
	g, err := generator(s.gen)
	if err != nil {
		return err
	}
	dir, err := b.tempDir()
	if err != nil {
		return err
	}
	s.path = filepath.Join(dir, "trace.v4")
	p := b.params(s.params)
	if _, err := c.time("workloads.build_s", func() error {
		f, err := os.Create(s.path)
		if err != nil {
			return err
		}
		if _, err := g.BuildChunked(p, f, trace.ChunkOptions{}); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}); err != nil {
		return err
	}
	_, err = c.time("core.new_s", func() (err error) { _, err = core.New(s.design); return err })
	return err
}

func (s *streamed) sample(b *bench, c *calls) (outcome, error) {
	start := time.Now()
	var cur *trace.Cursor
	if _, err := c.time("trace.open_s", func() (err error) { cur, err = trace.OpenCursorFile(s.path); return err }); err != nil {
		return outcome{}, err
	}
	defer cur.Close()
	var sys *core.System
	if _, err := c.time("core.new_s", func() (err error) { sys, err = core.New(s.design); return err }); err != nil {
		return outcome{}, err
	}
	var res core.Results
	runS, err := c.time("core.run_s", func() (err error) {
		res, err = sys.RunCursor(b.ctx, cur, core.WithIntraParallelism(1))
		return err
	})
	if err != nil {
		return outcome{}, err
	}
	return finishSample(c, sys, res, time.Since(start).Seconds(), runS)
}

// finishSample digests a simulation's results and reads its counters.
func finishSample(c *calls, sys *core.System, res core.Results, opS, runS float64) (outcome, error) {
	var sum [sha256.Size]byte
	c.time("core.encode_s", func() error { sum = sha256.Sum256(core.EncodeResults(res)); return nil })
	return outcome{
		lines:    res.GPU.CoalescedReqs,
		opS:      opS,
		runS:     runS,
		digest:   hex.EncodeToString(sum[:]),
		counters: simCounters(sys, res),
	}, nil
}

// simCounters reads the simulated counters of a finished run from its
// Results, its partitioned-engine statistics and its metrics registry.
func simCounters(sys *core.System, res core.Results) map[string]float64 {
	info, _ := sys.IntraInfo()
	snap := sys.Metrics().Snapshot(0)
	value := func(name string) float64 { v, _ := snap.Value(name); return v }
	lines := float64(res.GPU.CoalescedReqs)
	pwcHits, pwcMisses := value("ptw.pwc.hits"), value("ptw.pwc.misses")
	return map[string]float64{
		"sim.events_per_line":      ratio(float64(info.Events), lines),
		"sim.windows":              float64(info.Windows),
		"sim.crossings":            float64(info.Crossings),
		"gpu.cycles":               float64(res.Cycles),
		"gpu.lines":                lines,
		"tlb.lookups":              float64(res.PerCUTLB.Accesses()),
		"tlb.miss_ratio":           res.PerCUTLB.MissRatio(),
		"iommu.requests":           float64(res.IOMMU.Requests),
		"iommu.acc_per_cycle":      res.IOMMURate.Mean,
		"iommu.delay_p99_cy":       res.IOMMUDelayP99,
		"iommu.queue_delay_cy":     float64(res.IOMMU.QueueDelay),
		"ptw.walks":                value("ptw.walks"),
		"ptw.pwc_hit_ratio":        ratio(pwcHits, pwcHits+pwcMisses),
		"noc.messages":             snap.Sum("noc.", ".messages"),
		"cache.l1_hit_ratio":       res.L1.HitRatio(),
		"cache.l2_hit_ratio":       res.L2.HitRatio(),
		"cache.l2_fills":           float64(res.L2.Fills),
		"fbt.allocations":          float64(res.FBT.Allocations),
		"fbt.secondary_tlb_hits":   float64(res.FBT.SecondaryTLBHits),
		"dram.reads":               float64(res.DRAM.Reads),
		"churn.retired_entries":    0,
		"churn.resident_at_retire": 0,
		"churn.shootdowns":         0,
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// churn replays an open-loop multi-tenant launch plan, once per design.
type churn struct {
	params  workloads.ChurnParams
	designs []core.Config
	lines   uint64 // coalesced lines of one replay of the plan
}

func (ch *churn) setup(b *bench, c *calls) error {
	ch.params.Seed = b.seed
	if b.smoke {
		ch.params.Launches = 16
	}
	c.time("workloads.build_s", func() error {
		pl := workloads.BuildChurnPlan(ch.params)
		ch.lines = 0
		for _, l := range pl.Launches {
			ch.lines += pl.KernelTrace(l).Summarize().CoalescedLines
		}
		return nil
	})
	_, err := c.time("core.new_s", func() (err error) { _, err = core.New(ch.designs[0]); return err })
	return err
}

func (ch *churn) sample(b *bench, c *calls) (outcome, error) {
	out := outcome{counters: map[string]float64{}}
	var points []experiments.ChurnPoint
	for _, cfg := range ch.designs {
		var pt experiments.ChurnPoint
		d, _ := c.time("experiments.churn_s", func() error { pt = experiments.RunChurn(cfg, ch.params); return nil })
		out.runS += d
		out.lines += ch.lines
		points = append(points, pt)
		out.counters["gpu.cycles"] += float64(pt.ServiceCycles)
		out.counters["iommu.queue_delay_cy"] += float64(pt.IOMMUQueueDelay)
		out.counters["churn.retired_entries"] += float64(pt.RetiredEntries)
		out.counters["churn.resident_at_retire"] += float64(pt.ResidentAtRetire)
		out.counters["churn.shootdowns"] += float64(pt.Shootdowns)
	}
	out.opS = out.runS
	out.counters["gpu.lines"] = float64(out.lines)
	buf, err := json.Marshal(points)
	if err != nil {
		return outcome{}, err
	}
	sum := sha256.Sum256(buf)
	out.digest = hex.EncodeToString(sum[:])
	return out, nil
}

//go:embed golden.json
var goldenJSON []byte

// goldenDigest returns the result digest recorded for workload at the
// current SimVersion and the golden seed, or "" when none is recorded.
func goldenDigest(workload string) (string, error) {
	var golden map[string]map[string]string // SimVersion -> workload -> digest
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return "", fmt.Errorf("golden.json: %w", err)
	}
	return golden[strconv.Itoa(core.SimVersion)][workload], nil
}

// goldenSeed is the seed golden.json digests were recorded at.
const goldenSeed = 42
