package trace

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"math"
	"os"
	"slices"
	"sync"

	"vcache/internal/memory"
)

// ErrCursorExhausted is wrapped by Cursor errors reported after the chunk
// stream ended prematurely.
var ErrCursorExhausted = errors.New("trace: chunk stream exhausted")

// Cursor streams a v4 chunked trace for replay. It validates the header,
// footer and trailer at open (plus a cheap structural scan over the chunk
// frames), then decodes chunks on a background prefetch goroutine one
// chunk ahead of consumption — the GPU front-end's event loop blocks on a
// decoded chunk only when replay outruns the prefetcher. Each chunk
// decodes into a Trace of the stream's shape whose instructions index the
// chunk's arena, and must pass the checks of Trace.Validate.
//
// NextSegment feeds the GPU front end's streamed launch: per-warp segment
// delivery in stream order, with per-chunk crc validation at decode time.
// A decode failure is sticky — every subsequent NextSegment reports
// exhaustion and Err returns the failure — so a corrupt mid-file chunk
// ends the run with an error instead of silently partial results.
//
// A Cursor is single-use: once the chunk stream is consumed it cannot be
// rewound. Callers wanting several replays open several cursors.
type Cursor struct {
	r      io.ReadSeeker
	closer io.Closer // non-nil when the cursor owns the underlying file

	name  string
	asid  memory.ASID
	warps []int // per-CU warp counts
	flags uint64

	first     int64 // the first chunk frame's offset, just past the header
	footerOff int64 // the footer's offset, from the trailer
	numChunks int
	rollup    uint64
	premap    []memory.VPN
	totals    []uint64 // per global warp
	summary   Summary

	mu        sync.Mutex
	queues    [][]Segment // per global warp FIFO of undelivered segments
	started   bool
	exhausted bool
	err       error

	prefetch chan prefetched
	stop     chan struct{}
	wg       sync.WaitGroup
}

// Segment is a contiguous piece of one warp's instruction stream. Insts
// reference Arena (not a whole-trace arena) via their Off fields.
type Segment struct {
	Insts []Inst
	Arena []memory.VAddr
}

// prefetched is one decoded chunk, or the error that ended the stream.
type prefetched struct {
	chunk *Trace
	err   error
}

// OpenCursorFile opens path as a v4 chunked trace; Close releases the
// file.
func OpenCursorFile(path string) (*Cursor, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	c, err := NewCursor(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	c.closer = f
	return c, nil
}

// NewCursor validates the stream's framing (header, chunk-frame scan,
// footer, trailer) and positions for streaming. r must cover exactly one
// v4 trace; the caller keeps ownership of r unless the cursor came from
// OpenCursorFile.
func NewCursor(r io.ReadSeeker) (*Cursor, error) {
	c := &Cursor{r: r}
	if err := c.readHeader(); err != nil {
		return nil, err
	}
	if err := c.readFooter(); err != nil {
		return nil, err
	}
	if err := c.scanChunks(); err != nil {
		return nil, err
	}
	c.queues = make([][]Segment, len(c.totals))
	c.prefetch = make(chan prefetched, 1)
	c.stop = make(chan struct{})
	return c, nil
}

func (c *Cursor) readHeader() error {
	var magic [8]byte
	if _, err := io.ReadFull(c.r, magic[:]); err != nil {
		return fmt.Errorf("trace: reading chunked magic: %w", err)
	}
	if magic != chunkFileMagic {
		if string(magic[:7]) == "VCTRACE" {
			return fmt.Errorf("trace: unsupported format version %d (want %d); regenerate the file with tracegen -o",
				magic[7], ChunkFormatVersion)
		}
		return fmt.Errorf("trace: bad magic %q (not a v%d trace file)", magic[:], ChunkFormatVersion)
	}
	// The header is tiny; read it byte-exactly (no bufio readahead) so the
	// consumed count doubles as the first chunk frame's file offset.
	sr := newSmallReader(c.r)
	crc := crc64.New(crcTable)
	crc.Write(magic[:])
	hr := headerReader{sr: sr, h: crc}
	var err error
	if c.flags, err = hr.uvarint("flags", 1<<8); err != nil {
		return err
	}
	nameLen, err := hr.uvarint("name length", maxNameLen)
	if err != nil {
		return err
	}
	name := make([]byte, nameLen)
	if err := hr.full(name); err != nil {
		return fmt.Errorf("trace: reading name: %w", err)
	}
	c.name = string(name)
	asid, err := hr.uvarint("asid", uint64(^memory.ASID(0)))
	if err != nil {
		return err
	}
	c.asid = memory.ASID(asid)
	numCUs, err := hr.uvarint("CU count", maxCUs)
	if err != nil {
		return err
	}
	totalWarps := uint64(0)
	c.warps = make([]int, numCUs)
	for i := range c.warps {
		n, err := hr.uvarint("warp count", maxWarpsPerCU)
		if err != nil {
			return err
		}
		if totalWarps += n; totalWarps > maxTotalWarps {
			return fmt.Errorf("trace: total warp contexts exceed limit %d", maxTotalWarps)
		}
		c.warps[i] = int(n)
	}
	sum := crc.Sum64()
	var stored [8]byte
	if _, err := io.ReadFull(sr, stored[:]); err != nil {
		return fmt.Errorf("trace: reading header checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint64(stored[:]); got != sum {
		return fmt.Errorf("trace: header checksum mismatch (stored %#x, computed %#x)", got, sum)
	}
	c.first = 8 + sr.consumed
	return nil
}

// headerReader reads the small crc'd header: every byte consumed also
// feeds the checksum.
type headerReader struct {
	sr *smallReader
	h  interface{ Write(p []byte) (int, error) }
}

func (hr headerReader) ReadByte() (byte, error) {
	b, err := hr.sr.ReadByte()
	if err != nil {
		return 0, err
	}
	hr.h.Write([]byte{b})
	return b, nil
}

func (hr headerReader) full(p []byte) error {
	if _, err := io.ReadFull(hr.sr, p); err != nil {
		return err
	}
	hr.h.Write(p)
	return nil
}

func (hr headerReader) uvarint(what string, max uint64) (uint64, error) {
	x, err := binary.ReadUvarint(hr)
	if err != nil {
		return 0, fmt.Errorf("trace: reading %s: %w", what, err)
	}
	if x > max {
		return 0, fmt.Errorf("trace: %s %d exceeds limit %d", what, x, max)
	}
	return x, nil
}

// smallReader is an unbuffered byte reader over the cursor's stream; the
// header and footer are tiny, so per-byte reads are fine and keep the
// underlying offset exact (no bufio readahead to undo).
type smallReader struct {
	r        io.Reader
	consumed int64
}

func newSmallReader(r io.Reader) *smallReader { return &smallReader{r: r} }

func (s *smallReader) Read(p []byte) (int, error) {
	n, err := s.r.Read(p)
	s.consumed += int64(n)
	return n, err
}

func (s *smallReader) ReadByte() (byte, error) {
	var b [1]byte
	if _, err := io.ReadFull(s.r, b[:]); err != nil {
		return 0, err
	}
	s.consumed++
	return b[0], nil
}

func (c *Cursor) readFooter() error {
	end, err := c.r.Seek(-trailerBytes, io.SeekEnd)
	if err != nil {
		return fmt.Errorf("trace: seeking trailer: %w", err)
	}
	var trailer [trailerBytes]byte
	if _, err := io.ReadFull(c.r, trailer[:]); err != nil {
		return fmt.Errorf("trace: reading trailer: %w", err)
	}
	if !bytes.Equal(trailer[8:], chunkTrailerMagic[:]) {
		return fmt.Errorf("trace: bad trailer magic %q (truncated chunked trace?)", trailer[8:])
	}
	footerOff := int64(binary.LittleEndian.Uint64(trailer[:8]))
	if footerOff < 0 || footerOff >= end {
		return fmt.Errorf("trace: footer offset %d outside file", footerOff)
	}
	c.footerOff = footerOff
	if _, err := c.r.Seek(footerOff, io.SeekStart); err != nil {
		return fmt.Errorf("trace: seeking footer: %w", err)
	}
	// The footer body spans [footerOff+1, end-8): marker byte, body, crc.
	bodyLen := end - footerOff - 1 - 8
	if bodyLen < 0 || bodyLen > maxChunkBytes {
		return fmt.Errorf("trace: footer length %d out of range", bodyLen)
	}
	frame, err := readCapped(c.r, 1+bodyLen+8)
	if err != nil {
		return fmt.Errorf("trace: reading footer: %w", err)
	}
	if frame[0] != footerMarker {
		return fmt.Errorf("trace: bad footer marker %#x", frame[0])
	}
	body := frame[1 : 1+bodyLen]
	want := binary.LittleEndian.Uint64(frame[1+bodyLen:])
	if got := crc64.Checksum(body, crcTable); got != want {
		return fmt.Errorf("trace: footer checksum mismatch (stored %#x, computed %#x)", want, got)
	}

	d := &byteDecoder{buf: body}
	numChunks := d.uvarint("chunk count", maxChunks)
	c.numChunks = int(numChunks)
	c.rollup = d.u64()
	npremap := d.uvarint("premap length", maxPremap)
	if d.err == nil && npremap > 0 {
		c.premap = make([]memory.VPN, 0, min(npremap, 1<<16))
		for i := uint64(0); i < npremap && d.err == nil; i++ {
			c.premap = append(c.premap, memory.VPN(d.uvarint("premap VPN", 1<<memory.VPNBits-1)))
		}
	}
	total := 0
	for _, n := range c.warps {
		total += n
	}
	c.totals = make([]uint64, total)
	for i := range c.totals {
		c.totals[i] = d.uvarint("warp total", maxInstsPerWarp)
	}
	c.summary = Summary{Name: c.name}
	c.summary.MemInsts = d.uvarint("summary", math.MaxUint64)
	c.summary.LaneAccesses = d.uvarint("summary", math.MaxUint64)
	c.summary.CoalescedLines = d.uvarint("summary", math.MaxUint64)
	c.summary.ScratchOps = d.uvarint("summary", math.MaxUint64)
	c.summary.ComputeInsts = d.uvarint("summary", math.MaxUint64)
	c.summary.Barriers = d.uvarint("summary", math.MaxUint64)
	c.summary.DistinctPages = int(d.uvarint("summary", maxPremap))
	c.summary.Divergence = math.Float64frombits(d.u64())
	c.summary.PagesPerInst = math.Float64frombits(d.u64())
	if d.err != nil {
		return fmt.Errorf("trace: %w", d.err)
	}
	if d.rem() != 0 {
		return fmt.Errorf("trace: %d trailing footer bytes", d.rem())
	}
	if uint64(len(c.premap)) != npremap {
		return fmt.Errorf("trace: truncated premap list")
	}
	return nil
}

// scanChunks walks the chunk frames without reading payloads: each frame's
// declared length must chain exactly from the header to the footer, and
// the frame count must match the footer's declaration. Payload contents
// (and their crcs) are validated later, at decode time, so opening a
// cached multi-GB trace costs O(chunks) tiny reads, not a full pass.
func (c *Cursor) scanChunks() error {
	off := c.first
	for i := 0; i < c.numChunks; i++ {
		if off >= c.footerOff {
			return fmt.Errorf("trace: chunk %d starts past footer (footer declares %d chunks)", i, c.numChunks)
		}
		if _, err := c.r.Seek(off, io.SeekStart); err != nil {
			return err
		}
		sr := newSmallReader(c.r)
		marker, err := sr.ReadByte()
		if err != nil {
			return fmt.Errorf("trace: scanning chunk %d: %w", i, err)
		}
		if marker != chunkMarker {
			return fmt.Errorf("trace: chunk %d: bad marker %#x", i, marker)
		}
		stored, err := binary.ReadUvarint(sr)
		if err != nil {
			return fmt.Errorf("trace: scanning chunk %d: %w", i, err)
		}
		raw, err := binary.ReadUvarint(sr)
		if err != nil {
			return fmt.Errorf("trace: scanning chunk %d: %w", i, err)
		}
		if stored > maxChunkBytes || raw > maxChunkBytes {
			return fmt.Errorf("trace: chunk %d: size %d/%d exceeds limit %d", i, stored, raw, maxChunkBytes)
		}
		next := off + sr.consumed + int64(stored) + 8
		if next > c.footerOff {
			return fmt.Errorf("trace: chunk %d overruns footer", i)
		}
		off = next
	}
	if off != c.footerOff {
		return fmt.Errorf("trace: %d unframed bytes between chunks and footer", c.footerOff-off)
	}
	// Leave the stream positioned at the first chunk for the prefetcher.
	_, err := c.r.Seek(c.first, io.SeekStart)
	return err
}

// byteDecoder is a bounds-checked decoder over an in-memory buffer. Its
// errors carry no package prefix: the footer's caller adds "trace: ", and
// a chunk's adds "chunk N: " before the chunk's reader adds "trace: ".
type byteDecoder struct {
	buf []byte
	off int
	err error
}

func (d *byteDecoder) rem() int { return len(d.buf) - d.off }

func (d *byteDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *byteDecoder) uvarint(what string, max uint64) uint64 {
	if d.err != nil {
		return 0
	}
	x, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("reading %s: truncated", what)
		return 0
	}
	d.off += n
	if x > max {
		d.fail("%s %d exceeds limit %d", what, x, max)
		return 0
	}
	return x
}

func (d *byteDecoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.rem() < 8 {
		d.fail("reading u64: truncated")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

// readCapped reads exactly n bytes in bounded pieces, so a hostile length
// declaration on a truncated stream fails fast instead of provoking one
// huge allocation.
func readCapped(r io.Reader, n int64) ([]byte, error) {
	const piece = 1 << 20
	buf := make([]byte, 0, min(n, piece))
	for int64(len(buf)) < n {
		take := min(n-int64(len(buf)), piece)
		old := len(buf)
		buf = append(buf, make([]byte, take)...)
		if _, err := io.ReadFull(r, buf[old:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// Name returns the trace name.
func (c *Cursor) Name() string { return c.name }

// ASID returns the trace's address-space id.
func (c *Cursor) ASID() memory.ASID { return c.asid }

// NumCUs returns the CU count.
func (c *Cursor) NumCUs() int { return len(c.warps) }

// NumWarps returns cu's warp-context count.
func (c *Cursor) NumWarps(cu int) int { return c.warps[cu] }

// WarpLen returns the warp's total instruction count.
func (c *Cursor) WarpLen(cu, warp int) uint64 { return c.totals[c.gw(cu, warp)] }

// NumChunks returns the stream's chunk count.
func (c *Cursor) NumChunks() int { return c.numChunks }

// Summary returns the footer's trace summary (identical to Summarize on
// the materialized equivalent).
func (c *Cursor) Summary() Summary { return c.summary }

// Premap returns the pages the trace touches, in the exact first-touch
// order of the materialized trace — replaying it through
// AddressSpace.EnsureMapped reproduces frame assignment byte for byte.
func (c *Cursor) Premap() []memory.VPN { return c.premap }

func (c *Cursor) gw(cu, warp int) int {
	g := 0
	for i := 0; i < cu; i++ {
		g += c.warps[i]
	}
	return g + warp
}

// start launches the prefetch goroutine (once, lazily).
func (c *Cursor) start() {
	if c.started {
		return
	}
	c.started = true
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		defer close(c.prefetch)
		rollup := uint64(0)
		for i := 0; i < c.numChunks; i++ {
			chunk, crc, err := c.decodeChunk(i)
			if err != nil {
				select {
				case c.prefetch <- prefetched{err: err}:
				case <-c.stop:
				}
				return
			}
			var sum [8]byte
			binary.LittleEndian.PutUint64(sum[:], crc)
			rollup = crc64.Update(rollup, crcTable, sum[:])
			select {
			case c.prefetch <- prefetched{chunk: chunk}:
			case <-c.stop:
				return
			}
		}
		if rollup != c.rollup {
			select {
			case c.prefetch <- prefetched{err: fmt.Errorf("chunk-crc rollup mismatch (stored %#x, computed %#x)", c.rollup, rollup)}:
			case <-c.stop:
			}
		}
	}()
}

// decodeChunk reads and decodes chunk i, returning it and the stored
// payload's crc. Runs on the prefetch goroutine only, which owns the
// stream position after open. Like every error the prefetcher sends, its
// errors carry no package prefix: the reader that reports one adds it.
func (c *Cursor) decodeChunk(i int) (*Trace, uint64, error) {
	sr := newSmallReader(c.r)
	marker, err := sr.ReadByte()
	if err != nil {
		return nil, 0, fmt.Errorf("chunk %d: %w", i, err)
	}
	if marker != chunkMarker {
		return nil, 0, fmt.Errorf("chunk %d: bad marker %#x", i, marker)
	}
	storedLen, err := binary.ReadUvarint(sr)
	if err != nil {
		return nil, 0, fmt.Errorf("chunk %d: %w", i, err)
	}
	rawLen, err := binary.ReadUvarint(sr)
	if err != nil {
		return nil, 0, fmt.Errorf("chunk %d: %w", i, err)
	}
	if storedLen > maxChunkBytes || rawLen > maxChunkBytes {
		return nil, 0, fmt.Errorf("chunk %d: size exceeds limit", i)
	}
	stored, err := readCapped(c.r, int64(storedLen))
	if err != nil {
		return nil, 0, fmt.Errorf("chunk %d payload: %w", i, err)
	}
	var sum [8]byte
	if _, err := io.ReadFull(c.r, sum[:]); err != nil {
		return nil, 0, fmt.Errorf("chunk %d checksum: %w", i, err)
	}
	want := binary.LittleEndian.Uint64(sum[:])
	crc := crc64.Checksum(stored, crcTable)
	if crc != want {
		return nil, 0, fmt.Errorf("chunk %d checksum mismatch (stored %#x, computed %#x)", i, want, crc)
	}

	payload := stored
	if c.flags&flagCompressed != 0 {
		fr := flate.NewReader(bytes.NewReader(stored))
		payload, err = readCapped(fr, int64(rawLen))
		if err == nil {
			// The decoded size must match exactly: no trailing data.
			var one [1]byte
			if n, _ := fr.Read(one[:]); n != 0 {
				err = errors.New("decoded size exceeds declaration")
			}
		}
		fr.Close()
		if err != nil {
			return nil, 0, fmt.Errorf("chunk %d decompress: %w", i, err)
		}
	} else if uint64(len(payload)) != rawLen {
		return nil, 0, fmt.Errorf("chunk %d: stored %d bytes but declares %d raw", i, len(payload), rawLen)
	}
	chunk, err := c.parseChunk(payload)
	if err != nil {
		return nil, 0, fmt.Errorf("chunk %d: %w", i, err)
	}
	return chunk, crc, nil
}

// parseChunk decodes a chunk's decoded payload into a Trace of the
// stream's shape whose instructions index the chunk's arena: every CU's
// warps are carved from one backing array, and a warp's second segment in
// the chunk appends to its first. The chunk must pass Validate's checks.
func (c *Cursor) parseChunk(payload []byte) (*Trace, error) {
	d := &byteDecoder{buf: payload}
	t := &Trace{CUs: make([]CUTrace, len(c.warps))}
	warps := make([]WarpTrace, len(c.totals))
	for cu, n := range c.warps {
		t.CUs[cu].Warps, warps = warps[:n:n], warps[n:]
	}
	nseg := d.uvarint("segment count", uint64(len(c.totals)))
	for i := uint64(0); i < nseg && d.err == nil; i++ {
		cu := d.uvarint("segment cu", uint64(len(c.warps))-1)
		var warp uint64
		if d.err == nil {
			if c.warps[cu] == 0 {
				d.fail("segment on CU %d with zero warp contexts", cu)
				break
			}
			warp = d.uvarint("segment warp", uint64(c.warps[cu])-1)
		}
		n := d.uvarint("segment length", maxInstsPerWarp)
		if d.err != nil {
			break
		}
		if int64(d.rem()) < int64(n)*instBytes {
			d.fail("segment declares %d instructions, %d bytes remain", n, d.rem())
			break
		}
		insts := slices.Grow(t.CUs[cu].Warps[warp], int(n))
		for j := uint64(0); j < n; j++ {
			rec := d.buf[d.off : d.off+instBytes]
			d.off += instBytes
			insts = append(insts, Inst{
				Kind:   Kind(rec[0]),
				Lanes:  binary.LittleEndian.Uint16(rec[1:]),
				Off:    binary.LittleEndian.Uint32(rec[3:]),
				Cycles: binary.LittleEndian.Uint64(rec[7:]),
			})
		}
		t.CUs[cu].Warps[warp] = insts
	}
	arenaLen := d.uvarint("arena length", maxArenaLen)
	if d.err == nil && int64(d.rem()) != int64(arenaLen)*8 {
		d.fail("arena declares %d addresses, %d bytes remain", arenaLen, d.rem())
	}
	if d.err != nil {
		return nil, d.err
	}
	t.Arena = make([]memory.VAddr, arenaLen)
	for i := range t.Arena {
		t.Arena[i] = memory.VAddr(binary.LittleEndian.Uint64(d.buf[d.off:]))
		d.off += 8
	}
	return t, t.check()
}

// NextSegment returns the next stream segment for (cu, warp), pulling and
// distributing decoded chunks as needed. ok is false once the warp's
// stream is exhausted — or the stream failed; Err distinguishes. Safe for
// concurrent use, with Err and Materialize too.
func (c *Cursor) NextSegment(cu, warp int) (Segment, bool) {
	g := c.gw(cu, warp)
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.queues[g]) == 0 {
		if !c.pullChunkLocked() {
			return Segment{}, false
		}
	}
	seg := c.queues[g][0]
	c.queues[g][0] = Segment{} // release the chunk reference promptly
	c.queues[g] = c.queues[g][1:]
	return seg, true
}

// pullChunkLocked moves one decoded chunk from the prefetcher into the
// per-warp queues. Returns false when the stream is exhausted or failed.
func (c *Cursor) pullChunkLocked() bool {
	if c.exhausted {
		return false
	}
	c.start()
	p, ok := <-c.prefetch
	if !ok {
		c.exhausted = true
		return false
	}
	if p.err != nil {
		c.exhausted = true
		if c.err == nil {
			c.err = fmt.Errorf("%w: %w", ErrCursorExhausted, p.err)
		}
		return false
	}
	g := 0
	for _, cu := range p.chunk.CUs {
		for _, insts := range cu.Warps {
			if len(insts) > 0 {
				c.queues[g] = append(c.queues[g], Segment{Insts: insts, Arena: p.chunk.Arena})
			}
			g++
		}
	}
	return true
}

// Err reports the sticky stream error, if any. A run that completed while
// Err is non-nil replayed a truncated stream and must be discarded.
func (c *Cursor) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Close stops the prefetcher and releases the underlying file (when the
// cursor owns it).
func (c *Cursor) Close() error {
	close(c.stop)
	c.wg.Wait()
	if c.closer != nil {
		return c.closer.Close()
	}
	return nil
}

// Materialize reads the rest of the stream into a whole trace: a
// materialized trace is a v4 stream read to the end. Each chunk's arena
// is staged through a Builder's blocks and copied once into the trace's;
// every chunk passed Validate's checks, so the trace does too. For a
// stream written by a streaming Builder, or by WriteChunked from a
// Builder-made trace, the result is reflect.DeepEqual to the Builder's
// trace.
func (c *Cursor) Materialize() (*Trace, error) {
	t := &Trace{Name: c.name, ASID: c.asid, CUs: make([]CUTrace, len(c.warps))}
	for i := range t.CUs {
		t.CUs[i].Warps = make([]WarpTrace, c.warps[i])
	}
	b := &Builder{tr: t}
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		c.start()
		p, ok := <-c.prefetch
		if !ok {
			break
		}
		if p.err != nil {
			err := fmt.Errorf("trace: %w", p.err)
			c.exhausted = true
			if c.err == nil {
				c.err = err
			}
			return nil, err
		}
		if b.staged+uint64(len(p.chunk.Arena)) > 1<<32 {
			return nil, errors.New("trace: materialized arena exceeds 4G lane addresses")
		}
		base := uint32(b.stage(p.chunk.Arena))
		for cu := range p.chunk.CUs {
			for w, insts := range p.chunk.CUs[cu].Warps {
				for _, in := range insts {
					if in.Kind == Load || in.Kind == Store {
						in.Off += base
					}
					t.CUs[cu].Warps[w] = append(t.CUs[cu].Warps[w], in)
				}
			}
		}
	}
	c.exhausted = true
	if c.err != nil {
		return nil, c.err
	}
	return b.assemble(), nil
}

// LoadFile reads the trace saved at path.
func LoadFile(path string) (*Trace, error) {
	c, err := OpenCursorFile(path)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	return c.Materialize()
}
