// Multi-process GPUs: §4.3's "Future GPU System Support". Two processes
// share the GPU in turns; their address spaces collide virtually
// (homonyms). Without ASID tags the virtual caches must flush on every
// context switch; with ASID-tagged lines both working sets coexist, and
// dynamic synonym remapping handles the synonyms multi-process sharing
// brings.
//
//	go run ./examples/multiprocess
package main

import (
	"fmt"

	"vcache"
)

// processTrace builds one process's kernel: divergent loads over `pages`
// pages starting at the same virtual base for every process — every
// address is a homonym between processes.
func processTrace(asid vcache.ASID, pages, insts int) *vcache.Trace {
	b := vcache.NewTraceBuilderASID("proc", asid, 8, 4)
	rng := uint64(asid) * 0x9e3779b97f4a7c15
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	const pageSize, lineSize = 4096, 128
	for i := 0; i < insts; i++ {
		addrs := make([]vcache.VAddr, 16)
		for l := range addrs {
			r := next()
			addrs[l] = vcache.VAddr((r%uint64(pages))*pageSize + ((r>>32)%8)*lineSize)
		}
		b.Warp().Load(addrs...)
	}
	return b.Build()
}

func run(name string, cfg vcache.Config) {
	cfg.GPU.NumCUs = 8
	sys := vcache.NewSystem(cfg)
	p1 := processTrace(1, 120, 400)
	p2 := processTrace(2, 120, 400)

	// Alternate processes on the GPU: A, B, A, then measure A's last turn.
	sys.Run(p1)
	sys.Run(p2)
	start := sys.Now()
	r := sys.Run(p1)
	turnCycles := r.Cycles - start

	fmt.Printf("%-24s A's 2nd turn %8d cycles   L2 resident lines %5d   faults %+v\n",
		name, turnCycles, sys.L2().Resident(), r.Faults)
}

func main() {
	fmt.Println("Two processes alternating on the GPU; identical virtual addresses (homonyms).")
	fmt.Println()

	flush := vcache.DesignVCOpt() // context switches flush virtual caches
	run("VC (flush on switch)", flush)

	tagged := vcache.DesignVCOpt()
	tagged.ASIDTags = true // §4.3: ASID-tagged lines, no flushes
	run("VC (ASID tags)", tagged)

	base := vcache.DesignBaseline512() // physical caches don't care
	run("Baseline (physical)", base)

	fmt.Println()
	fmt.Println("With ASID tags the returning process finds its data still cached (fewer")
	fmt.Println("cycles, larger resident set); without them each switch flushes the virtual")
	fmt.Println("hierarchy, and homonyms can never alias in either mode (zero faults).")
}
