package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
)

// profileHz is the CPU profile rate of a traced run. At the default 100 Hz
// a single-threaded run of a few seconds falls short of the 2,000 samples
// the layer breakdown needs; Linux honours 250 Hz. Setting the rate ahead
// of pprof.StartCPUProfile makes the runtime print a harmless warning.
const profileHz = 250

// profiled runs fn under a CPU profile and folds the profile into host-time
// shares per layer, using the toolchain's `go tool pprof -traces`.
func profiled(fn func() error) (shares map[string]float64, samples float64, err error) {
	f, err := os.CreateTemp("", "vcbench-*.pprof")
	if err != nil {
		return nil, 0, err
	}
	defer os.Remove(f.Name())
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, 0, err
	}
	runErr := fn()
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return nil, 0, err
	}
	if runErr != nil {
		return nil, 0, runErr
	}
	out, err := exec.Command("go", "tool", "pprof", "-traces", "-sample_index=samples", f.Name()).Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %w", err)
	}
	return foldTraces(string(out))
}

// foldTraces folds `pprof -traces -sample_index=samples` output into the
// share of samples spent in each layer. Each stack is charged to its
// innermost classified frame (self time): a repository package, the
// allocator and garbage collector ("runtime.gc"), or net/http and
// encoding/json ("net.http"). Standard-library helpers a layer calls, such
// as memmove or map access, count as that layer's. Stacks with no
// classified frame land in "other".
func foldTraces(text string) (map[string]float64, float64, error) {
	counts := map[string]float64{}
	var total float64
	var stack []string
	var n float64
	flush := func() {
		if len(stack) > 0 {
			counts[classify(stack)] += n
			total += n
		}
		stack, n = stack[:0], 0
	}
	// Each stack follows a separator line. Its frames are printed as
	// "%10s   %s": the first carries the sample count in the 10-column
	// value field, the rest leave it blank. Label lines ("%10s:  %s") and
	// the header before the first separator carry no frames.
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	inBody := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBody = true
			continue
		}
		if !inBody || len(line) <= 13 || line[10] == ':' {
			continue
		}
		if v := strings.TrimSpace(line[:10]); v != "" {
			count, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return nil, 0, fmt.Errorf("pprof traces: bad sample count in %q", line)
			}
			n = count
		}
		if fields := strings.Fields(line[13:]); len(fields) > 0 {
			stack = append(stack, fields[0])
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	shares := map[string]float64{}
	for k, v := range counts {
		shares[k] = v / total
	}
	return shares, total, nil
}

// gcPrefixes identify allocator and garbage-collector frames.
var gcPrefixes = []string{
	"runtime.mallocgc", "runtime.newobject", "runtime.makeslice", "runtime.gc",
	"runtime.(*gc", "runtime.scan", "runtime.markroot", "runtime.greyobject",
	"runtime.bgsweep", "runtime.sweepone", "runtime.(*sweepLocked)",
	"runtime.bgscavenge", "runtime.(*mheap)", "runtime.(*mcentral)",
	"runtime.(*mcache)", "runtime.wbBuf", "runtime.bulkBarrierPreWrite",
}

// netPrefixes identify the HTTP and JSON stack between client and daemon.
var netPrefixes = []string{"net/http.", "net.", "net/textproto.", "encoding/json."}

// classify returns the layer a stack (innermost frame first) is charged to.
func classify(stack []string) string {
	for _, fn := range stack {
		if pkg, ok := repoPackage(fn); ok {
			return pkg
		}
		for _, p := range gcPrefixes {
			if strings.HasPrefix(fn, p) {
				return "runtime.gc"
			}
		}
		for _, p := range netPrefixes {
			if strings.HasPrefix(fn, p) {
				return "net.http"
			}
		}
	}
	return "other"
}

// repoPackage maps a frame of a listed repository package to its layer
// name; frames of unlisted repository packages count as "other".
func repoPackage(fn string) (string, bool) {
	var pkg string
	switch {
	case strings.HasPrefix(fn, "vcache/internal/"):
		pkg = strings.TrimPrefix(fn, "vcache/internal/")
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
	case strings.HasPrefix(fn, "vcache/api/v1."):
		pkg = "api"
	default:
		return "", false
	}
	for _, p := range sharePackages {
		if p == pkg {
			return pkg, true
		}
	}
	return "other", true
}

// recordShares stores a folded profile as per-layer share metrics, every
// layer at 0 when it drew no samples, and beside each share the layer's
// host seconds: the share times the run's host seconds spent simulating.
func recordShares(rec *record, shares map[string]float64, samples, runSeconds float64) {
	for _, l := range layers {
		name := shareName(l)
		rec.set(name, "share", shares[l])
		rec.set(strings.TrimSuffix(name, "_share")+"_s", "s", shares[l]*runSeconds)
	}
	rec.set("pprof.samples", "count", samples)
}
