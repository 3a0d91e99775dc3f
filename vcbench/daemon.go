package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	apiv1 "vcache/api/v1"
	"vcache/internal/artifact"
	"vcache/internal/core"
	"vcache/internal/experiments"
	"vcache/internal/server"
	"vcache/internal/trace"
	"vcache/internal/workloads"
)

// The daemon-mix workload drives an in-process server through a real
// loopback HTTP listener with daemonCallers closed-loop clients: each
// submits a job, waits for its result, and submits the next. Three jobs in
// four are cold (a fresh seed, so the daemon generates a trace and
// simulates); the fourth resubmits a spec the caller already completed,
// which the artifact cache answers.
const (
	daemonWorkers = 2
	daemonCallers = 2
	identityJobs  = 3
)

var (
	daemonWorkloads = []string{"bfs", "kmeans", "hotspot", "backprop", "pathfinder", "nw"}
	daemonDesigns   = []string{"baseline-512", "vc-opt"}
	// primeJobs are completed in setup so that warm resubmissions have
	// specs to draw from from the first job on.
	primeJobs = [][2]string{{"kmeans", "vc-opt"}, {"hotspot", "baseline-512"}, {"pathfinder", "vc-opt"}, {"nw", "baseline-512"}}
)

// primeLane numbers the setup's jobs apart from the callers' in job seeds.
const primeLane = 15

// job is one submission and what came back.
type job struct {
	spec                      apiv1.JobSpec
	cold                      bool
	id                        string  // the server's job id
	latMS                     float64 // client-side SubmitWait latency
	wallMS                    float64 // submit to done inside the server
	hit                       bool    // answered from the artifact cache
	cycles, lines, queueDelay float64
	err                       error
}

// daemon is one running server with its listener and client.
type daemon struct {
	srv    *server.Server
	http   *http.Server
	served chan error
	tr     *http.Transport
	client *apiv1.Client

	mu       sync.Mutex
	simWalls []float64 // ms per simulated run, from Options.Progress
}

func startDaemon(dir string) (*daemon, error) {
	cache, err := artifact.Open(dir)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{served: make(chan error, 1)}
	d.srv = server.New(server.Options{Workers: daemonWorkers, Cache: cache, Progress: d.progress})
	d.http = &http.Server{Handler: d.srv.Handler()}
	go func() { d.served <- d.http.Serve(ln) }()
	d.tr = &http.Transport{MaxIdleConnsPerHost: daemonCallers}
	d.client = &apiv1.Client{BaseURL: "http://" + ln.Addr().String(), HTTPClient: &http.Client{Transport: d.tr}}

	deadline := time.Now().Add(10 * time.Second)
	for {
		_, err := d.client.Health(context.Background())
		if err == nil {
			return d, nil
		}
		if time.Now().After(deadline) {
			d.close()
			return nil, fmt.Errorf("daemon not healthy: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
}

func (d *daemon) progress(ev experiments.RunEvent) {
	if ev.Stage != "" || ev.Cached {
		return
	}
	d.mu.Lock()
	d.simWalls = append(d.simWalls, float64(ev.Wall.Nanoseconds())/1e6)
	d.mu.Unlock()
}

// takeSimWalls returns and clears the simulated-run walls seen so far.
func (d *daemon) takeSimWalls() []float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	w := d.simWalls
	d.simWalls = nil
	return w
}

// close stops the listener, the server and the client's connections, and
// waits for the serving goroutine and the workers to return.
func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.http.Shutdown(ctx)
	<-d.served
	if cerr := d.srv.Close(ctx); err == nil {
		err = cerr
	}
	d.tr.CloseIdleConnections()
	return err
}

// submit runs one job to completion.
func (d *daemon) submit(b *bench, spec apiv1.JobSpec, cold bool, op string, lane int) job {
	j := job{spec: spec, cold: cold}
	id := b.spans.begin("job", op, 0, lane)
	t0 := time.Now()
	info, err := d.client.SubmitWait(b.ctx, spec)
	j.latMS = float64(time.Since(t0).Nanoseconds()) / 1e6
	b.spans.end(id)
	switch {
	case err != nil:
		j.err = err
		return j
	case info.State != apiv1.JobDone:
		j.err = fmt.Errorf("job %s ended %s: %s", info.ID, info.State, info.Error)
		return j
	}
	j.id, j.wallMS, j.hit = info.ID, info.WallMS, info.CacheHit
	if cold {
		var r struct {
			Cycles uint64
			GPU    struct{ CoalescedReqs uint64 }
			IOMMU  struct{ QueueDelay uint64 }
		}
		if err := json.Unmarshal(info.Result, &r); err != nil {
			j.err = fmt.Errorf("job %s: decoding result: %w", info.ID, err)
			return j
		}
		j.cycles, j.lines, j.queueDelay = float64(r.Cycles), float64(r.GPU.CoalescedReqs), float64(r.IOMMU.QueueDelay)
	}
	return j
}

// jobSpec is the spec of a job with a seed no other job of the run uses.
func (b *bench) jobSpec(workload, design string, lane, n int) apiv1.JobSpec {
	return apiv1.JobSpec{
		APIVersion: apiv1.Version,
		Workload: apiv1.WorkloadSpec{Name: workload, Params: workloads.Params{
			Scale: 1, NumCUs: 8, WarpsPerCU: 4,
			Seed: (b.seed+1)<<20 | uint64(lane)<<16 | uint64(n),
		}},
		Design: apiv1.DesignSpec{Preset: design},
	}
}

// caller is one closed-loop client. Its choices come from its own seeded
// generator, so they do not depend on how the two callers interleave, and
// they are stratified, so the mix's proportions do not depend on the
// seed: every block of four submissions holds one warm resubmission, and
// every twelve cold jobs cover each workload-design pair once.
type caller struct {
	lane   int
	rng    *rand.Rand
	n      int             // cold specs made so far
	done   []apiv1.JobSpec // completed specs, for warm resubmission
	kinds  []bool          // rest of the current block: true = warm
	combos [][2]string     // rest of the current cycle of cold pairs
}

// next picks the caller's next submission.
func (cl *caller) next(b *bench) (spec apiv1.JobSpec, cold bool) {
	if len(cl.kinds) == 0 {
		cl.kinds = []bool{true, false, false, false}
		cl.rng.Shuffle(len(cl.kinds), func(i, j int) { cl.kinds[i], cl.kinds[j] = cl.kinds[j], cl.kinds[i] })
	}
	warm := cl.kinds[0]
	cl.kinds = cl.kinds[1:]
	if warm {
		return cl.done[cl.rng.Intn(len(cl.done))], false
	}
	if len(cl.combos) == 0 {
		for _, w := range daemonWorkloads {
			for _, d := range daemonDesigns {
				cl.combos = append(cl.combos, [2]string{w, d})
			}
		}
		cl.rng.Shuffle(len(cl.combos), func(i, j int) { cl.combos[i], cl.combos[j] = cl.combos[j], cl.combos[i] })
	}
	c := cl.combos[0]
	cl.combos = cl.combos[1:]
	cl.n++
	return b.jobSpec(c[0], c[1], cl.lane, cl.n), true
}

// loop submits jobs until window has passed, at least minJobs of them.
func (cl *caller) loop(b *bench, d *daemon, start time.Time, window time.Duration, minJobs int) []job {
	var jobs []job
	for len(jobs) < minJobs || time.Since(start) < window {
		spec, cold := cl.next(b)
		j := d.submit(b, spec, cold, fmt.Sprintf("c%d.%d", cl.lane, len(jobs)), cl.lane)
		if cold && j.err == nil {
			cl.done = append(cl.done, j.spec)
		}
		jobs = append(jobs, j)
	}
	return jobs
}

// phase is one closed-loop window of jobs.
type phase struct {
	jobs    []job
	elapsed float64 // seconds until the last job returned
	memDelta
	simWalls []float64
}

func (p phase) coldDone() []job {
	var js []job
	for _, j := range p.jobs {
		if j.cold && j.err == nil {
			js = append(js, j)
		}
	}
	return js
}

func (p phase) coldLines() float64 {
	var lines float64
	for _, j := range p.coldDone() {
		lines += j.lines
	}
	return lines
}

// runPhase lets every caller submit jobs until window has passed and its
// last job has returned.
func runPhase(b *bench, d *daemon, callers []*caller, window time.Duration, minJobs int) phase {
	d.takeSimWalls()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	per := make([][]job, len(callers))
	var wg sync.WaitGroup
	for i, cl := range callers {
		wg.Add(1)
		go func(i int, cl *caller) {
			defer wg.Done()
			per[i] = cl.loop(b, d, start, window, minJobs)
		}(i, cl)
	}
	wg.Wait()
	p := phase{elapsed: time.Since(start).Seconds(), simWalls: d.takeSimWalls()}
	runtime.ReadMemStats(&after)
	p.memDelta = deltaMem(&before, &after)
	for _, jobs := range per {
		p.jobs = append(p.jobs, jobs...)
	}
	for _, j := range p.jobs {
		b.rec.Attempted++
		if j.err != nil {
			b.failf("%v", j.err)
		}
	}
	return p
}

// runDaemonMix measures the daemon workload. Unlike the simulations', its
// timings are not scaled to the host's speed: the single-threaded host
// probe does not track a window that keeps both cores busy. Timed between
// five slices of the window, it left the spread of the daemon's
// throughput over ten seeds at 15%, against 11% unscaled.
func runDaemonMix(b *bench) error {
	var d *daemon
	var primed []job
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			if err := d.close(); err != nil {
				return err
			}
		}
		dir, err := b.tempDir()
		if err != nil {
			return err
		}
		_, secs, err := b.op("setup", strconv.Itoa(i), 0, func(*calls) (err error) {
			if d, err = startDaemon(filepath.Join(dir, "cache"+strconv.Itoa(i))); err != nil {
				return err
			}
			primed = primed[:0]
			for n, pj := range primeJobs {
				j := d.submit(b, b.jobSpec(pj[0], pj[1], primeLane, n), true, "prime"+strconv.Itoa(n), 0)
				if j.err != nil {
					return j.err
				}
				primed = append(primed, j)
			}
			return nil
		})
		if err != nil {
			if d != nil {
				d.close()
			}
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, secs)
	}
	defer d.close()
	b.rec.dist("setup_s", "s", setups)

	callers := make([]*caller, daemonCallers)
	for i := range callers {
		callers[i] = &caller{lane: i, rng: rand.New(rand.NewSource(int64(b.seed)*daemonCallers + int64(i)))}
		for _, j := range primed {
			callers[i].done = append(callers[i].done, j.spec)
		}
	}
	window, minJobs := b.window(), 1
	if b.smoke {
		window, minJobs = 0, 2
	}
	var p phase
	if b.traced {
		ref := runPhase(b, d, callers, window/3, minJobs)
		shares, samples, err := profiled(func() error {
			p = runPhase(b, d, callers, window, minJobs)
			return nil
		})
		if err != nil {
			return err
		}
		var runS float64
		for _, w := range p.simWalls {
			runS += w / 1e3
		}
		recordShares(&b.rec, shares, samples, runS)
		b.rec.set("tracing.overhead", "ratio", ref.coldLines()/ref.elapsed/(p.coldLines()/p.elapsed)-1)
	} else {
		p = runPhase(b, d, callers, window, minJobs)
	}
	if err := b.recordPhase(p); err != nil {
		return err
	}
	return b.checkIdentity(d, append(p.coldDone(), primed...))
}

// recordPhase reports a window's jobs.
func (b *bench) recordPhase(p phase) error {
	var cold, warm, overhead, walls []float64
	var done, warmHits float64
	counters := map[string]float64{"churn.retired_entries": 0, "churn.resident_at_retire": 0, "churn.shootdowns": 0}
	for _, j := range p.jobs {
		if j.err != nil {
			continue
		}
		done++
		overhead = append(overhead, j.latMS-j.wallMS)
		if !j.cold {
			warm = append(warm, j.latMS)
			if j.hit {
				warmHits++
			}
			continue
		}
		cold = append(cold, j.latMS)
		walls = append(walls, j.wallMS)
		counters["gpu.cycles"] += j.cycles
		counters["gpu.lines"] += j.lines
		counters["iommu.queue_delay_cy"] += j.queueDelay
	}
	lines := counters["gpu.lines"]
	if len(cold) == 0 || lines == 0 {
		return fmt.Errorf("no cold job completed")
	}
	n := float64(len(cold))
	b.rec.set("lines_per_s", "lines/s", lines/p.elapsed)
	b.rec.dist("op_p50_ms", "ms", cold)
	b.rec.set("allocs_per_line", "allocs", p.mallocs/lines)
	b.rec.set("heap_bytes_per_line", "B", p.bytes/lines)
	b.rec.set("runtime.gc_cycles", "count", p.gcs/n)
	b.rec.set("runtime.gc_pause_ms", "ms", p.pauseMS/n)
	b.recordCounters(counters)

	b.rec.set("jobs_per_s", "jobs/s", done/p.elapsed)
	if q, ok := tailPercentile(len(cold)); ok && q > 0.5 {
		b.rec.set(fmt.Sprintf("cold_p%g_ms", q*100), "ms", quantile(cold, q))
	}
	b.rec.dist("warm_p50_ms", "ms", warm)
	b.rec.dist("server.wall_ms_p50", "ms", walls)
	b.rec.dist("api.overhead_ms_p50", "ms", overhead)
	b.rec.dist("server.sim_ms_p50", "ms", p.simWalls)
	if len(warm) > 0 {
		b.rec.set("artifact.hit_frac", "ratio", warmHits/float64(len(warm)))
	}
	return nil
}

// checkIdentity reruns completed cold jobs through the library and fails
// each one whose daemon result bytes differ from the library's. Its
// boundary calls are the run's workloads, core.New and core.Run timings.
func (b *bench) checkIdentity(d *daemon, candidates []job) error {
	var cs []*calls
	for _, j := range candidates[:min(identityJobs, len(candidates))] {
		b.rec.Attempted++
		c, _, err := b.op("identity", j.id, 0, func(c *calls) error { return identity(b, c, d, j) })
		if err != nil {
			b.failf("identity %s: %v", j.id, err)
		}
		cs = append(cs, c)
	}
	b.recordCalls(cs)
	if _, ok := b.rec.Metrics["core.run_s"]; !ok {
		return fmt.Errorf("no identity check completed")
	}
	return nil
}

func identity(b *bench, c *calls, d *daemon, j job) error {
	_, served, err := d.client.Result(b.ctx, j.id)
	if err != nil {
		return err
	}
	cfg, p, err := j.spec.Resolve()
	if err != nil {
		return err
	}
	g, err := generator(j.spec.Workload.Name)
	if err != nil {
		return err
	}
	var tr *trace.Trace
	c.time("workloads.build_s", func() error { tr = g.Build(p); return nil })
	var sys *core.System
	if _, err := c.time("core.new_s", func() (err error) { sys, err = core.New(cfg); return err }); err != nil {
		return err
	}
	var res core.Results
	if _, err := c.time("core.run_s", func() (err error) {
		res, err = sys.RunContext(b.ctx, tr, core.WithIntraParallelism(1))
		return err
	}); err != nil {
		return err
	}
	if !bytes.Equal(served, apiv1.EncodeResults(res)) {
		return fmt.Errorf("daemon result bytes differ from the library's")
	}
	return nil
}
