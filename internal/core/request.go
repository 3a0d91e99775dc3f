package core

import (
	"vcache/internal/fbt"
	"vcache/internal/memory"
)

// request carries one coalesced line access through the memory system. It
// is a sim.Handler whose event argument is its stage: every continuation
// point of a path (paths.go) is a stage, and everything a continuation
// needs lives in the record, so advancing a request allocates nothing.
//
// Records come from one free list per System. A request starts on its
// CU's partition and ends there or on the backend (finish), and its record
// returns to the free list before done runs, so done may issue a new
// request at once.
//
// A record crosses the partition boundary inside a message, and every
// path that continues on the other side hands the record over with it. A
// message that can outlive its request (the DSR remap update) carries its
// own state instead.
type request struct {
	s     *System
	cu    int // the issuing CU
	write bool
	done  func()

	line memory.VAddr // the virtual line (after any DSR remap)
	addr uint64       // the line's cache address: physical line or virtual L2 key
	pte  memory.PTE   // the translation, once one arrived
	// fault marks an IOMMU result that found no mapping, on its way back
	// to a per-CU TLB.
	fault bool
	view  fbt.View // the leading mapping of a synonym replay

	// perm and filled carry a line fill's outcome from the backend to the
	// CU (filled: the line was installed under this request's address).
	perm   memory.Perm
	filled bool
}

// Request stages (request.Handle). Each names the event that just fired.
const (
	// Per-CU TLB translation (physical baseline, L1-only virtual).
	stTLB     = iota // the per-CU TLB lookup latency elapsed
	stTLB2           // the private second-level TLB lookup latency elapsed
	stTLBFill        // the IOMMU's answer reached the CU

	// Caches.
	stPhysL1 // the physical L1 lookup latency elapsed
	stVirtL1 // the virtual L1 lookup latency elapsed
	stL2     // the request reached the L2: queue at its bank
	stL2Bank // the L2 bank served the request
	stFill   // DRAM returned a physical line this request leads the fill of
	stL1Fill // a physical line's data reached the CU

	// Translation at the IOMMU, after a per-CU TLB miss or a virtual L2
	// miss.
	stIOMMU // the miss reached the IOMMU

	// Virtual L2 misses (the proposal).
	stFBTCheck  // the FBT lookup latency elapsed
	stVCFill    // DRAM returned the line for the virtual L2
	stSynBank   // a synonym replay reached the L2: queue at its bank
	stSynL2     // the L2 bank served the replay under the leading address
	stSynHit    // the replay's L2 hit reached the requesters
	stSynFill   // DRAM returned the replayed line
	stVCDeliver // a virtual L2 read's data (or fault) reached the CU
)

// Handle advances the request by one stage (sim.Handler).
func (r *request) Handle(stage uint64) {
	switch stage {
	case stTLB:
		r.lookupTLB()
	case stTLB2:
		r.lookupTLB2()
	case stIOMMU:
		r.s.io.Translate(r.s.asid, r.line.Page(), r)
	case stTLBFill:
		r.fillTLB()
	case stPhysL1:
		r.physL1()
	case stVirtL1:
		r.virtL1()
	case stL2:
		r.s.l2Bank(r.addr, r, stL2Bank)
	case stL2Bank:
		if r.s.cfg.Kind == VirtualHierarchy {
			r.vcL2()
		} else {
			r.physL2()
		}
	case stFill:
		r.physFill()
	case stL1Fill:
		r.l1Fill()
	case stFBTCheck:
		r.fbtCheck()
	case stVCFill:
		r.vcFill()
	case stSynBank:
		r.s.l2Bank(r.synKey(), r, stSynL2)
	case stSynL2:
		r.synL2()
	case stSynHit:
		r.lineReady(r.view.Perm, false)
	case stSynFill:
		r.synFill()
	case stVCDeliver:
		if r.filled {
			r.s.fillL1(r.cu, r.line, r.perm)
		}
		r.finish()
	default:
		panic("core: unknown request stage")
	}
}

// newRequest takes a record from the free list, or makes one when it is
// empty.
func (s *System) newRequest(cu int, line memory.VAddr, write bool, done func()) *request {
	var r *request
	if n := len(s.reqs); n > 0 {
		r = s.reqs[n-1]
		s.reqs = s.reqs[:n-1]
	} else {
		r = &request{s: s}
	}
	r.cu, r.line, r.write, r.done = cu, line, write, done
	return r
}

// finish completes a request, on its CU's partition or on the backend: the
// record returns to the free list, then done runs.
func (r *request) finish() {
	done := r.done
	r.done = nil
	r.s.reqs = append(r.s.reqs, r)
	done()
}
