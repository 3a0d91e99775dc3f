package trace

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"io"
	"math"
	"math/bits"
	"os"
	"sort"

	"vcache/internal/flatmap"
	"vcache/internal/memory"
)

// File format v4: the one on-disk encoding of a trace, a chunked stream
// replayable in bounded memory. Trace.Save, the artifact cache and
// cmd/tracegen -o all write it; a materialized trace is a v4 stream read
// to the end (Cursor.Materialize).
//
//	header    magic [8]byte "VCTRACE" + 4
//	          flags uvarint (bit 0: chunk payloads are flate-compressed)
//	          name uvarint length + bytes, asid uvarint
//	          numCUs uvarint, per CU: numWarps uvarint
//	          crc64 (8 bytes, ECMA) over everything above
//	chunks    repeated:
//	          marker byte 0xC4
//	          payloadLen uvarint (stored bytes), rawLen uvarint (decoded)
//	          payload (possibly compressed); decoded payload:
//	            numSegments uvarint
//	            per segment: cu uvarint, warp uvarint, numInsts uvarint,
//	                         numInsts fixed 15-byte records
//	                         (kind u8, lanes u16le, off u32le, cycles u64le)
//	            arenaLen uvarint, 8-byte little-endian VAddrs
//	          crc64 (8 bytes) over the stored payload bytes
//	footer    marker byte 0xF4, then (all crc'd):
//	          numChunks uvarint
//	          chunk-crc rollup: crc64 over the concatenated per-chunk crcs
//	          premap: count uvarint + VPN uvarints, in the exact page
//	            first-touch order of the equivalent materialized trace
//	          per-warp totals: per CU, per warp: uvarint instruction count
//	          summary: the trace Summary (uvarint counters + float bits)
//	          crc64 (8 bytes) over the footer body
//	trailer   footer offset (8 bytes LE) + magic [8]byte "VCTRAIL" + 4
//
// Chunks slice the instruction streams along the time axis: each chunk
// carries a contiguous segment of every active warp's stream plus a
// chunk-local lane-address arena (Off fields are chunk-local). A reader
// therefore replays warp-by-warp with only a bounded window of chunks
// resident, while per-warp totals (for launch decisions) and the premap
// page order (for deterministic frame assignment) ride in the footer.
//
// The footer lives at the end because the writer only knows totals,
// premap order and the summary after the last instruction; the fixed-size
// trailer makes it discoverable, which is why a Cursor requires a
// seekable input. Everything header-declared is capped before allocation
// and every payload is checksummed, so a corrupt or truncated file fails
// decoding cleanly instead of misdecoding (see FuzzChunkRoundTrip). The
// encoding is deterministic: identical writer input gives identical
// bytes. Versions 1 (per-instruction slices), 2 (gob) and 3 (one
// whole-file record) are rejected; regenerate old files with tracegen -o.
const ChunkFormatVersion = 4

var (
	chunkFileMagic    = [8]byte{'V', 'C', 'T', 'R', 'A', 'C', 'E', ChunkFormatVersion}
	chunkTrailerMagic = [8]byte{'V', 'C', 'T', 'R', 'A', 'I', 'L', ChunkFormatVersion}
)

// Decoder caps. Counts beyond these are rejected outright; counts under
// them still only allocate as fast as real data arrives.
const (
	maxNameLen      = 1 << 16
	maxCUs          = 1 << 16
	maxWarpsPerCU   = 1 << 16
	maxTotalWarps   = 1 << 22
	maxInstsPerWarp = 1 << 30
	maxLanes        = 1 << 12
	maxArenaLen     = 1 << 32

	instBytes = 15 // one encoded instruction record
)

var crcTable = crc64.MakeTable(crc64.ECMA)

const (
	chunkMarker  = 0xC4
	footerMarker = 0xF4
	trailerBytes = 16 // footer offset + trailer magic

	flagCompressed = 1 << 0

	// maxChunkBytes caps a single chunk's stored and decoded size; the
	// writer never exceeds the configured budget by more than one
	// instruction, but the reader must bound hostile declarations.
	maxChunkBytes = 1 << 30
	maxChunks     = 1 << 30
	maxPremap     = 1 << 28 // distinct 4KB pages (1TB footprint)

	// DefaultChunkBudget is the approximate decoded chunk size the writer
	// cuts at when ChunkOptions.Budget is zero: big enough that chunk
	// framing is noise, small enough that a handful of resident chunks
	// stay far under any materialized trace worth streaming.
	DefaultChunkBudget = 4 << 20

	// pieceBytes sizes the buffer a chunk payload is encoded through on
	// its way out, so no chunk is ever staged whole in encoded form.
	pieceBytes = 64 << 10
)

// ChunkOptions configures a ChunkWriter.
type ChunkOptions struct {
	// Budget is the approximate decoded size, in bytes, at which the
	// writer cuts a chunk (0 = DefaultChunkBudget). Device barriers cut
	// earlier (at Budget/4) so chunk boundaries prefer points where every
	// warp resynchronizes, bounding how many chunks a replay holds live.
	Budget int
	// Compress flate-compresses chunk payloads. Decoding cost is paid on
	// the reader's prefetch goroutine, not the simulation event loop.
	Compress bool
	// OnChunk, when non-nil, observes every cut: chunk index and the
	// stored payload size. Generators surface this as progress.
	OnChunk func(index int, storedBytes int)
}

// pagePos orders page first-touches the way System.Prepare walks a
// materialized trace: cu-major warp order, then instruction order within
// the warp, then lane order. pos packs the instruction index and the
// page's rank among the instruction's pages in first-lane order.
type pagePos struct {
	gw  uint32 // cu*warpsPerCU + warp
	pos uint64 // instIdx<<16 | rank
}

func (a pagePos) less(b pagePos) bool {
	if a.gw != b.gw {
		return a.gw < b.gw
	}
	return a.pos < b.pos
}

// ChunkWriter streams a trace to w in format v4. It only encodes: its
// Builder (NewStreamingBuilder) accumulates the current chunk and cuts it
// at the configured budget, and the writer folds each chunk it is handed
// into the footer (premap order, per-warp totals, summary) and writes it
// as one frame, so no more than one chunk's worth of instruction data is
// ever held. WriteChunked feeds a built trace through the same Builder.
//
// Errors are sticky: after the first, nothing more is written and Close
// returns it.
type ChunkWriter struct {
	w    *bufio.Writer
	cnt  countingWriter
	opts ChunkOptions
	b    *Builder // accumulates the current chunk

	// Footer accumulation, folded over each chunk as it is encoded.
	totals []uint64             // per global warp, cu-major
	premap flatmap.Map[pagePos] // VPN -> the page's first touch
	chunks int
	rollup uint64 // crc64 state over per-chunk crcs
	sum    summarizer

	// Encoding: a raw payload streams through piece into the output; a
	// compressed one is staged in zbuf, because its frame header leads
	// with the compressed size.
	piece []byte
	zbuf  bytes.Buffer

	started bool
	closed  bool
	err     error
}

// NewChunkWriter starts a v4 stream on w for the given shape. Every CU
// gets warpsPerCU warp contexts, matching NewBuilder.
func NewChunkWriter(w io.Writer, name string, asid memory.ASID, numCUs, warpsPerCU int, opts ChunkOptions) *ChunkWriter {
	if opts.Budget <= 0 {
		opts.Budget = DefaultChunkBudget
	}
	b := NewBuilder(name, asid, numCUs, warpsPerCU)
	// A chunk is cut once it holds budget bytes at 8 per lane, so before
	// its last access it holds fewer than budget/8 lanes, and one block of
	// budget/8 + maxLanes addresses holds every chunk of valid accesses.
	// The decoder caps a chunk at maxChunkBytes, and so does the block.
	b.block = make([]memory.VAddr, 0, min(opts.Budget, maxChunkBytes)/8+maxLanes)
	b.budget = opts.Budget
	cw := &ChunkWriter{
		opts:   opts,
		b:      b,
		totals: make([]uint64, numCUs*warpsPerCU),
		sum:    summarizer{sum: Summary{Name: name}},
		piece:  make([]byte, 0, pieceBytes),
	}
	b.cw = cw
	cw.cnt.w = w
	cw.w = bufio.NewWriter(&cw.cnt)
	return cw
}

// countingWriter counts bytes so Close knows the footer's file offset
// without requiring a seekable destination.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// writeHeader emits the file header before the first chunk (or at Close
// for an empty trace).
func (cw *ChunkWriter) writeHeader() {
	if cw.started || cw.err != nil {
		return
	}
	cw.started = true
	crc := crc64.New(crcTable)
	mw := io.MultiWriter(cw.w, crc)
	if _, err := mw.Write(chunkFileMagic[:]); err != nil {
		cw.fail(fmt.Errorf("trace: writing chunked header: %w", err))
		return
	}
	var flags uint64
	if cw.opts.Compress {
		flags |= flagCompressed
	}
	t := cw.b.tr
	writeUvarint(mw, flags)
	writeUvarint(mw, uint64(len(t.Name)))
	io.WriteString(mw, t.Name)
	writeUvarint(mw, uint64(t.ASID))
	writeUvarint(mw, uint64(len(t.CUs)))
	for _, cu := range t.CUs {
		writeUvarint(mw, uint64(len(cu.Warps)))
	}
	var sum [8]byte
	binary.LittleEndian.PutUint64(sum[:], crc.Sum64())
	if _, err := cw.w.Write(sum[:]); err != nil {
		cw.fail(fmt.Errorf("trace: writing chunked header: %w", err))
	}
}

func writeUvarint(w io.Writer, x uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], x)
	w.Write(buf[:n])
}

func (cw *ChunkWriter) fail(err error) {
	if cw.err == nil {
		cw.err = err
	}
}

// encode is the chunk encoder. It checks a chunk its Builder cut, folds it
// into the footer and writes it as one frame; the chunk's instructions
// index its own arena.
func (cw *ChunkWriter) encode(chunk *Trace) {
	if cw.err != nil || cw.closed {
		return
	}
	if err := chunk.check(); err != nil {
		cw.fail(fmt.Errorf("trace: chunk %d: %w", cw.chunks, err))
		return
	}
	cw.fold(chunk)
	cw.writeHeader()
	if cw.err != nil {
		return
	}
	raw, nseg := payloadLen(chunk)
	stored := raw
	var err error
	if cw.opts.Compress {
		stored, err = cw.writeCompressed(chunk, raw, nseg)
	} else {
		cw.writeFrameHeader(raw, raw)
		crc := crc64.New(crcTable)
		if err = cw.encodePayload(io.MultiWriter(cw.w, crc), chunk, nseg); err == nil {
			err = cw.writeFrameCRC(crc.Sum64())
		}
	}
	if err != nil {
		cw.fail(fmt.Errorf("trace: writing chunk: %w", err))
		return
	}
	cw.chunks++
	if cw.opts.OnChunk != nil {
		cw.opts.OnChunk(cw.chunks-1, stored)
	}
}

// fold adds a chunk to the footer: its warps' instruction counts, the
// position of each page's first touch and its summary. Every sum and
// minimum folds the same whatever the chunking.
func (cw *ChunkWriter) fold(chunk *Trace) {
	g := 0
	for _, cu := range chunk.CUs {
		for _, warp := range cu.Warps {
			for i, in := range warp {
				if in.Kind != Load && in.Kind != Store {
					cw.sum.ctl(in.Kind)
					continue
				}
				cw.sum.mem(chunk.Addrs(in))
				for rank, p := range cw.sum.pages {
					// The instruction's pages come in first-lane order, so
					// their rank orders their first touches within it.
					pos := pagePos{gw: uint32(g), pos: (cw.totals[g]+uint64(i))<<16 | uint64(rank)}
					if at := cw.premap.Ref(uint64(p)); at == nil {
						cw.premap.Put(uint64(p), pos)
					} else if pos.less(*at) {
						*at = pos
					}
				}
			}
			cw.totals[g] += uint64(len(warp))
			g++
		}
	}
}

// payloadLen returns the decoded size of a chunk's payload and its
// segment count, one segment per warp with instructions. Knowing the size
// up front lets the frame header precede a payload that is encoded
// straight into the output.
func payloadLen(chunk *Trace) (n, nseg int) {
	for c, cu := range chunk.CUs {
		for w, s := range cu.Warps {
			if len(s) > 0 {
				nseg++
				n += uvarintLen(uint64(c)) + uvarintLen(uint64(w)) +
					uvarintLen(uint64(len(s))) + instBytes*len(s)
			}
		}
	}
	n += uvarintLen(uint64(nseg)) + uvarintLen(uint64(len(chunk.Arena))) + 8*len(chunk.Arena)
	return n, nseg
}

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// encodePayload encodes a chunk's payload into w, a piece buffer at a
// time: segments in cu-major warp order, then the arena.
func (cw *ChunkWriter) encodePayload(w io.Writer, chunk *Trace, nseg int) error {
	// Spilling whenever less than this headroom is left keeps every
	// append between checks inside the buffer's capacity.
	const headroom = 64
	var err error
	buf := binary.AppendUvarint(cw.piece[:0], uint64(nseg))
	for c, cu := range chunk.CUs {
		for wi, s := range cu.Warps {
			if len(s) == 0 {
				continue
			}
			buf = binary.AppendUvarint(buf, uint64(c))
			buf = binary.AppendUvarint(buf, uint64(wi))
			buf = binary.AppendUvarint(buf, uint64(len(s)))
			for _, in := range s {
				buf = append(buf, byte(in.Kind))
				buf = binary.LittleEndian.AppendUint16(buf, in.Lanes)
				buf = binary.LittleEndian.AppendUint32(buf, in.Off)
				buf = binary.LittleEndian.AppendUint64(buf, in.Cycles)
				if len(buf) > pieceBytes-headroom {
					buf, err = spill(w, buf, err)
				}
			}
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(chunk.Arena)))
	for _, a := range chunk.Arena {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(a))
		if len(buf) > pieceBytes-headroom {
			buf, err = spill(w, buf, err)
		}
	}
	_, err = spill(w, buf, err)
	return err
}

// spill passes a piece on to w unless an earlier spill failed, and
// returns the buffer emptied.
func spill(w io.Writer, buf []byte, err error) ([]byte, error) {
	if err == nil {
		_, err = w.Write(buf)
	}
	return buf[:0], err
}

// writeCompressed writes a chunk as a frame with a flate-compressed
// payload and returns the stored size. The frame header leads with that
// size, so the compressed bytes are staged; the raw payload streams into
// the compressor.
func (cw *ChunkWriter) writeCompressed(chunk *Trace, raw, nseg int) (int, error) {
	cw.zbuf.Reset()
	zw, err := flate.NewWriter(&cw.zbuf, flate.BestSpeed)
	if err == nil {
		err = cw.encodePayload(zw, chunk, nseg)
	}
	if err == nil {
		err = zw.Close()
	}
	if err != nil {
		return 0, err
	}
	stored := cw.zbuf.Bytes()
	cw.writeFrameHeader(len(stored), raw)
	cw.w.Write(stored) // a failure sticks to cw.w and surfaces below
	return len(stored), cw.writeFrameCRC(crc64.Checksum(stored, crcTable))
}

// writeFrameHeader starts a chunk frame. Write errors stick to the
// bufio.Writer and surface at the frame's last write.
func (cw *ChunkWriter) writeFrameHeader(stored, raw int) {
	cw.w.WriteByte(chunkMarker)
	writeUvarint(cw.w, uint64(stored))
	writeUvarint(cw.w, uint64(raw))
}

// writeFrameCRC ends a frame with its payload crc; its write reports any
// failure in the frame.
func (cw *ChunkWriter) writeFrameCRC(crc uint64) error {
	var sum [8]byte
	binary.LittleEndian.PutUint64(sum[:], crc)
	cw.rollup = crc64.Update(cw.rollup, crcTable, sum[:])
	_, err := cw.w.Write(sum[:])
	return err
}

// Summary returns the incrementally-computed trace summary; complete only
// after Close.
func (cw *ChunkWriter) Summary() Summary { return cw.sum.summary(cw.premap.Len()) }

// premapOrder returns the tracked pages in materialized first-touch
// order. No two pages share a first touch, so the order does not depend on
// the table's.
func (cw *ChunkWriter) premapOrder() []memory.VPN {
	type pageAt struct {
		vpn memory.VPN
		at  pagePos
	}
	pages := make([]pageAt, 0, cw.premap.Len())
	for _, k := range cw.premap.AppendKeys(make([]uint64, 0, cw.premap.Len())) {
		at, _ := cw.premap.Get(k)
		pages = append(pages, pageAt{memory.VPN(k), at})
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i].at.less(pages[j].at) })
	out := make([]memory.VPN, len(pages))
	for i, p := range pages {
		out[i] = p.vpn
	}
	return out
}

// Close cuts the pending chunk, writes footer and trailer, and returns
// the first error encountered anywhere in the stream. The underlying
// writer is not closed.
func (cw *ChunkWriter) Close() error {
	if cw.closed {
		return cw.err
	}
	cw.b.cut()
	cw.writeHeader() // empty trace: header still required
	cw.closed = true
	if cw.err != nil {
		return cw.err
	}

	var body []byte
	body = binary.AppendUvarint(body, uint64(cw.chunks))
	body = binary.LittleEndian.AppendUint64(body, cw.rollup)
	order := cw.premapOrder()
	body = binary.AppendUvarint(body, uint64(len(order)))
	for _, vpn := range order {
		body = binary.AppendUvarint(body, uint64(vpn))
	}
	for _, n := range cw.totals {
		body = binary.AppendUvarint(body, n)
	}
	s := cw.Summary()
	body = binary.AppendUvarint(body, s.MemInsts)
	body = binary.AppendUvarint(body, s.LaneAccesses)
	body = binary.AppendUvarint(body, s.CoalescedLines)
	body = binary.AppendUvarint(body, s.ScratchOps)
	body = binary.AppendUvarint(body, s.ComputeInsts)
	body = binary.AppendUvarint(body, s.Barriers)
	body = binary.AppendUvarint(body, uint64(s.DistinctPages))
	body = binary.LittleEndian.AppendUint64(body, math.Float64bits(s.Divergence))
	body = binary.LittleEndian.AppendUint64(body, math.Float64bits(s.PagesPerInst))

	// Flush buffered chunk bytes so the counter reflects the footer's
	// exact file offset.
	if err := cw.w.Flush(); err != nil {
		return cw.sticky(err)
	}
	off := cw.cnt.n
	if err := cw.w.WriteByte(footerMarker); err != nil {
		return cw.sticky(err)
	}
	if _, err := cw.w.Write(body); err != nil {
		return cw.sticky(err)
	}
	var sum [8]byte
	binary.LittleEndian.PutUint64(sum[:], crc64.Checksum(body, crcTable))
	if _, err := cw.w.Write(sum[:]); err != nil {
		return cw.sticky(err)
	}
	var trailer [trailerBytes]byte
	binary.LittleEndian.PutUint64(trailer[:8], uint64(off))
	copy(trailer[8:], chunkTrailerMagic[:])
	if _, err := cw.w.Write(trailer[:]); err != nil {
		return cw.sticky(err)
	}
	if err := cw.w.Flush(); err != nil {
		return cw.sticky(err)
	}
	return nil
}

func (cw *ChunkWriter) sticky(err error) error {
	cw.fail(fmt.Errorf("trace: writing chunked footer: %w", err))
	return cw.err
}

// WriteChunked encodes a built trace as a v4 stream, feeding its
// instructions through the writer's Builder in arena order (see
// arenaWalk). For a trace whose arena holds exactly its accesses' lanes
// in emission order, as every Builder-made trace does, that is the order
// the generator emitted them in, so Materialize returns a trace
// reflect.DeepEqual to t. A trace whose accesses break arena order still
// replays unchanged; its materialized arena is packed in stream order.
// Ragged warp shapes are rejected.
func (t *Trace) WriteChunked(w io.Writer, opts ChunkOptions) error {
	if len(t.CUs) == 0 {
		return fmt.Errorf("trace: cannot chunk a trace with no CUs")
	}
	wPerCU := len(t.CUs[0].Warps)
	for c, cu := range t.CUs {
		if len(cu.Warps) != wPerCU {
			return fmt.Errorf("trace: cannot chunk ragged warp shape (cu 0 has %d warps, cu %d has %d)",
				wPerCU, c, len(cu.Warps))
		}
	}
	if wPerCU == 0 {
		return fmt.Errorf("trace: cannot chunk a trace with no warp contexts")
	}
	if err := t.Validate(); err != nil {
		return err
	}
	cw := NewChunkWriter(w, t.Name, t.ASID, len(t.CUs), wPerCU, opts)
	walk := newArenaWalk(t)
	for cw.err == nil {
		g, lo, hi, ok := walk.next()
		if !ok {
			break
		}
		e := WarpEmitter{b: cw.b, cu: g / wPerCU, warp: g % wPerCU}
		for _, in := range walk.warps[g][lo:hi] {
			if in.Kind == Load || in.Kind == Store {
				e.access(in, t.Addrs(in))
			} else {
				e.emit(in)
			}
		}
	}
	return cw.Close()
}

// arenaWalk orders a built trace's instructions for WriteChunked. First
// come each warp's instructions before its first access, warp by warp.
// Then warps take turns in the order of their next access's arena
// offset, each turn covering that access and the warp's instructions up
// to its next one. Every warp's own stream keeps its order.
type arenaWalk struct {
	warps []WarpTrace // by global warp index
	acc   []int       // per warp: index of its next access, len(warp) when none is left
	heap  []int       // warps with an access left, ordered by that access's Off
	head  int         // warps whose leading instructions have been walked
}

func newArenaWalk(t *Trace) *arenaWalk {
	a := &arenaWalk{}
	for _, cu := range t.CUs {
		a.warps = append(a.warps, cu.Warps...)
	}
	a.acc = make([]int, len(a.warps))
	for g := range a.warps {
		if a.acc[g] = a.nextAccess(g, 0); a.acc[g] < len(a.warps[g]) {
			a.heap = append(a.heap, g)
		}
	}
	for i := len(a.heap)/2 - 1; i >= 0; i-- {
		a.down(i)
	}
	return a
}

// next returns the next turn: instructions [lo, hi) of warp g. ok is
// false once every instruction has been walked.
func (a *arenaWalk) next() (g, lo, hi int, ok bool) {
	for a.head < len(a.warps) {
		g, a.head = a.head, a.head+1
		if a.acc[g] > 0 {
			return g, 0, a.acc[g], true
		}
	}
	if len(a.heap) == 0 {
		return 0, 0, 0, false
	}
	g, lo = a.heap[0], a.acc[a.heap[0]]
	hi = a.nextAccess(g, lo+1)
	if a.acc[g] = hi; hi == len(a.warps[g]) {
		last := len(a.heap) - 1
		a.heap[0] = a.heap[last]
		a.heap = a.heap[:last]
	}
	a.down(0)
	return g, lo, hi, true
}

func (a *arenaWalk) nextAccess(g, from int) int {
	w := a.warps[g]
	for from < len(w) && w[from].Kind != Load && w[from].Kind != Store {
		from++
	}
	return from
}

func (a *arenaWalk) less(i, j int) bool {
	gi, gj := a.heap[i], a.heap[j]
	oi, oj := a.warps[gi][a.acc[gi]].Off, a.warps[gj][a.acc[gj]].Off
	return oi < oj || oi == oj && gi < gj
}

func (a *arenaWalk) down(i int) {
	for {
		m := 2*i + 1
		if m >= len(a.heap) {
			return
		}
		if r := m + 1; r < len(a.heap) && a.less(r, m) {
			m = r
		}
		if !a.less(m, i) {
			return
		}
		a.heap[i], a.heap[m] = a.heap[m], a.heap[i]
		i = m
	}
}

// Save writes the trace to path as a v4 stream.
func (t *Trace) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteChunked(f, ChunkOptions{}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
