package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// The host this benchmark runs on shares its cores and memory with other
// machines' work, and its speed drifts by 10-15% over minutes. A
// simulation run therefore measures the host too: before its setups and
// before each sample it times hostRef, a fixed kernel shaped like the
// simulator's inner loop, and it scales its end-to-end timings by
// refNominal over the kernel's median time in the run. Of the kernels
// tried, an event heap over a cache-resident hash table followed by a
// burst of small allocations tracked the four simulation workloads best:
// over twenty one-minute windows it cut the spread of their median sample
// times from 11-13% to 4-6%.
//
// The kernel runs in a child process of this binary (a probe), so its
// garbage never counts in the run's peak RSS and its collections never
// scan the simulator's heap: its time depends on the host alone, whatever
// a change does to the simulator.

// refNominal is about hostRef's median time on the 2-core host the
// benchmark was defined on; normalized timings read as host seconds there.
const refNominal = 0.07

const (
	refKeys    = 1 << 11
	refEvents  = 400_000
	refAllocs  = 1_500_000
	refRingLen = 4096
)

// probeArg, as a binary's only argument, makes it a probe: it reads
// request lines on standard input and answers each with one timed run of
// the kernel, in seconds.
const probeArg = "-host-probe"

// serveProbe is the probe's side.
func serveProbe(in io.Reader, out io.Writer) error {
	r := bufio.NewReader(in)
	for {
		if _, err := r.ReadString('\n'); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		if _, err := fmt.Fprintf(out, "%g\n", hostRef()); err != nil {
			return err
		}
	}
}

// hostProbe is a running probe.
type hostProbe struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Reader
}

// startProbe starts a probe and runs the kernel once to grow the probe's
// heap to its steady size.
func startProbe() (*hostProbe, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, probeArg)
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &hostProbe{cmd: cmd, in: in, out: bufio.NewReader(out)}
	if _, err := p.time(); err != nil {
		p.close()
		return nil, err
	}
	return p, nil
}

// time runs the kernel once in the probe and returns its host seconds.
func (p *hostProbe) time() (float64, error) {
	if _, err := io.WriteString(p.in, "\n"); err != nil {
		return 0, fmt.Errorf("host probe: %w", err)
	}
	line, err := p.out.ReadString('\n')
	if err != nil {
		return 0, fmt.Errorf("host probe: %w", err)
	}
	return strconv.ParseFloat(strings.TrimSpace(line), 64)
}

// close ends the probe and waits for it to exit.
func (p *hostProbe) close() error {
	p.in.Close()
	return p.cmd.Wait()
}

// hostRef runs the reference kernel once and returns its host seconds.
func hostRef() float64 {
	start := time.Now()
	refSink = refHeap() + refAlloc()
	return time.Since(start).Seconds()
}

// refSink keeps the kernel's results live so the compiler cannot drop the
// work.
var refSink uint64

type refEvent struct{ at, key uint64 }

// refHeap pops and pushes events on a binary heap, allocating each one,
// and updates a hash table entry per event.
func refHeap() uint64 {
	table := make(map[uint64]uint64, refKeys)
	for i := uint64(0); i < refKeys; i++ {
		table[i*0x9e3779b97f4a7c15] = i
	}
	var h []*refEvent
	push := func(e *refEvent) {
		h = append(h, e)
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if h[p].at <= h[i].at {
				break
			}
			h[p], h[i] = h[i], h[p]
			i = p
		}
	}
	pop := func() *refEvent {
		top := h[0]
		last := len(h) - 1
		h[0] = h[last]
		h = h[:last]
		for i := 0; ; {
			l, m := 2*i+1, i
			if l < last && h[l].at < h[m].at {
				m = l
			}
			if l+1 < last && h[l+1].at < h[m].at {
				m = l + 1
			}
			if m == i {
				break
			}
			h[m], h[i] = h[i], h[m]
			i = m
		}
		return top
	}
	x := uint64(88172645463325252)
	for i := uint64(0); i < 64; i++ {
		push(&refEvent{at: i, key: i})
	}
	for n := 0; n < refEvents; n++ {
		e := pop()
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		table[(x%refKeys)*0x9e3779b97f4a7c15] += e.key
		push(&refEvent{at: e.at + x%97, key: x})
	}
	return table[0] + h[0].key
}

// refAlloc allocates small objects into a ring, dropping the oldest.
func refAlloc() uint64 {
	ring := make([]*[2]uint64, refRingLen)
	for i := 0; i < refAllocs; i++ {
		ring[i%refRingLen] = &[2]uint64{uint64(i), 1}
	}
	return ring[0][0]
}
