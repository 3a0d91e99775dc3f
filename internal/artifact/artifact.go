// Package artifact is a content-addressed on-disk cache for the
// experiment pipeline: simulation results, and the chunked trace streams
// that streaming runs replay off disk. It is what makes re-runs
// incremental — a suite whose inputs haven't changed reloads every result
// from disk instead of regenerating traces and resimulating.
//
// Keys are fingerprints (see internal/fingerprint) over everything that
// determines an artifact's bytes, each struct hashed as its JSON document:
//
//   - a trace is keyed by workload name + the JSON of normalized
//     workloads.Params + trace.ChunkFormatVersion +
//     workloads.GeneratorVersion;
//   - a result is keyed by the trace's key + core.ConfigFingerprint (the
//     Config's JSON, which carries every exported field, plus
//     core.SimVersion) + the layout of core.Results.
//
// Bumping any of the version constants, or changing any config value or
// the Results layout, therefore changes the key and old entries simply
// stop being found — no explicit invalidation step exists or is needed.
// Retyping a field without changing its values, or moving a type to
// another package, leaves keys alone; a behaviour change bumps a version.
// Stale files are garbage that a `rm -r` of the cache directory clears.
//
// Entries are stored one file per artifact, named by the key's hex
// digest. A trace is a raw v4 stream under <dir>/ctrace/, written by
// PutChunkedTrace as it is generated and handed to cursors by
// ChunkedTracePath; the format carries its own checksums. Materialized
// traces are not stored: their generators rebuild them about as fast as
// a stored stream reads back, so an entry would only cost its write. A
// result sits under <dir>/result/ as its canonical JSON document
// (core.EncodeResults, the bytes the job daemon serves) in a checksummed
// envelope. Reads validate an entry before use: a corrupt, truncated or
// version-mismatched entry counts as a miss (and is noted in
// Stats.Corrupt), never an error — the caller recomputes and overwrites
// it. Writes go through a temp file in the same directory followed by an
// atomic rename, so concurrent processes sharing a cache directory never
// observe partial entries.
package artifact

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"vcache/internal/core"
	"vcache/internal/fingerprint"
	"vcache/internal/obs"
	"vcache/internal/trace"
	"vcache/internal/workloads"
)

// Fingerprint is a cache key.
type Fingerprint = fingerprint.Sum

// EnvDir is the environment variable overriding the default cache
// directory.
const EnvDir = "VCACHE_DIR"

// Result envelope format: magic, version, payload length, payload
// checksum, payload. The envelope guards the file plumbing (truncation,
// bit rot, foreign files); ResultKey covers the payload's schema.
const (
	envMagic   = "vcacheaf"
	envVersion = 1
	envHeader  = 8 + 4 + 8 + 8
)

var crcTable = crc64.MakeTable(crc64.ECMA)

// DefaultDir returns the cache directory used when none is configured:
// $VCACHE_DIR if set, else out/cache relative to the working directory.
func DefaultDir() string {
	if d := os.Getenv(EnvDir); d != "" {
		return d
	}
	return filepath.Join("out", "cache")
}

// Stats is a snapshot of cache-traffic counters.
type Stats struct {
	TraceHits    uint64
	TraceMisses  uint64
	ResultHits   uint64
	ResultMisses uint64
	BytesRead    uint64
	BytesWritten uint64
	// Corrupt counts entries rejected during Get (bad envelope, checksum or
	// payload decode); each also counts as a miss.
	Corrupt uint64
	// Errors counts filesystem failures while writing entries. Put errors
	// are deliberately swallowed — a read-only or full cache degrades to
	// recomputation, it doesn't fail the run.
	Errors uint64
}

func (s Stats) String() string {
	return fmt.Sprintf("traces %d/%d hit, results %d/%d hit, %s read, %s written, %d corrupt, %d errors",
		s.TraceHits, s.TraceHits+s.TraceMisses,
		s.ResultHits, s.ResultHits+s.ResultMisses,
		fmtBytes(s.BytesRead), fmtBytes(s.BytesWritten), s.Corrupt, s.Errors)
}

func fmtBytes(n uint64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// Cache is an open artifact cache rooted at a directory. All methods are
// safe for concurrent use, including by multiple processes sharing the
// directory. A nil *Cache is valid and never hits: code paths that support
// -no-cache just carry a nil cache.
type Cache struct {
	dir string

	traceHits    atomic.Uint64
	traceMisses  atomic.Uint64
	resultHits   atomic.Uint64
	resultMisses atomic.Uint64
	bytesRead    atomic.Uint64
	bytesWritten atomic.Uint64
	corrupt      atomic.Uint64
	errors       atomic.Uint64
}

// Open opens (creating if needed) an artifact cache rooted at dir. An empty
// dir means DefaultDir.
func Open(dir string) (*Cache, error) {
	if dir == "" {
		dir = DefaultDir()
	}
	for _, sub := range []string{"ctrace", "result"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o777); err != nil {
			return nil, fmt.Errorf("artifact: opening cache: %w", err)
		}
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache's root directory ("" for a nil cache).
func (c *Cache) Dir() string {
	if c == nil {
		return ""
	}
	return c.dir
}

// Stats snapshots the traffic counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		TraceHits:    c.traceHits.Load(),
		TraceMisses:  c.traceMisses.Load(),
		ResultHits:   c.resultHits.Load(),
		ResultMisses: c.resultMisses.Load(),
		BytesRead:    c.bytesRead.Load(),
		BytesWritten: c.bytesWritten.Load(),
		Corrupt:      c.corrupt.Load(),
		Errors:       c.errors.Load(),
	}
}

// Observe registers the cache's counters with an observability scope, so
// cache traffic lands in metrics output alongside simulator counters.
func (c *Cache) Observe(sc obs.Scope) {
	if c == nil {
		return
	}
	gauge := func(name string, a *atomic.Uint64) {
		sc.Gauge(name, func() float64 { return float64(a.Load()) })
	}
	gauge("trace_hits", &c.traceHits)
	gauge("trace_misses", &c.traceMisses)
	gauge("result_hits", &c.resultHits)
	gauge("result_misses", &c.resultMisses)
	gauge("bytes_read", &c.bytesRead)
	gauge("bytes_written", &c.bytesWritten)
	gauge("corrupt", &c.corrupt)
	gauge("errors", &c.errors)
}

// ---------------------------------------------------------------------------
// Keys

// TraceKey fingerprints everything that determines a generated trace:
// workload identity, the JSON of the normalized generation parameters, the
// on-disk trace format, and the generator implementation version. The
// chunk budget is deliberately absent: chunk geometry is a storage detail
// that never changes simulation results (the streaming differential tests
// pin this), so streams cut at different budgets are interchangeable.
func TraceKey(workload string, p workloads.Params) Fingerprint {
	params, err := json.Marshal(p.Normalized())
	if err != nil {
		panic(fmt.Errorf("artifact: encoding params: %w", err)) // unreachable: Params holds four integers
	}
	return fingerprint.Hash("vcache/trace", []byte(workload), params,
		[]byte(strconv.Itoa(trace.ChunkFormatVersion)), []byte(strconv.Itoa(workloads.GeneratorVersion)))
}

// resultsLayout fingerprints the core.Results layout: every exported leaf
// path and its type. JSON decoding ignores unknown fields and zero-fills
// missing ones, so an entry written under another layout would decode
// into wrong values; keying on the layout means it is never looked up.
var resultsLayout = fingerprint.Hash("core.Results",
	[]byte(strings.Join(fingerprint.Paths(reflect.TypeOf(core.Results{})), "\n")))

// ResultKey fingerprints everything that determines simulation results: the
// input trace (via its cache key), the full simulator configuration
// (core.ConfigFingerprint hashes the Config's JSON and core.SimVersion) and
// the Results layout.
func ResultKey(traceKey Fingerprint, cfg core.Config) Fingerprint {
	cfgFP := core.ConfigFingerprint(cfg)
	return fingerprint.Hash("vcache/result", traceKey[:], cfgFP[:], resultsLayout[:])
}

// ---------------------------------------------------------------------------
// Typed entry points

// ChunkedTracePath returns the on-disk path of the trace stream cached
// under key, validating it first (header, footer, and chunk-frame
// structure — an O(chunks) scan, no payload pass). The entry is not
// loaded into memory: callers open cursors straight off the file, which
// is the whole point of the chunked format. A corrupt entry counts as a
// miss; payload damage beyond the structural scan is still caught by the
// cursor's per-chunk checksums at replay time.
func (c *Cache) ChunkedTracePath(key Fingerprint) (string, bool) {
	if c == nil {
		return "", false
	}
	path := c.path("ctrace", key)
	cur, err := trace.OpenCursorFile(path)
	if err != nil {
		if !os.IsNotExist(err) {
			c.corrupt.Add(1)
		}
		c.traceMisses.Add(1)
		return "", false
	}
	cur.Close()
	c.traceHits.Add(1)
	return path, true
}

// PutChunkedTrace streams a trace into the cache: gen writes the v4
// stream directly to a temp file in the cache directory, which is
// atomically renamed into place on success. Returns the final path. Raw
// v4 bytes are stored without the result envelope — the format carries
// its own per-chunk and footer checksums, and wrapping would force cursor
// opens through a copy. Errors are counted, not returned ("", false): the
// caller decides (vcsim streams from a temp file instead, the experiment
// suite fails the run).
func (c *Cache) PutChunkedTrace(key Fingerprint, gen func(io.Writer) error) (string, bool) {
	if c == nil {
		return "", false
	}
	dst := c.path("ctrace", key)
	f, err := os.CreateTemp(filepath.Dir(dst), "."+key.String()[:16]+".tmp*")
	if err != nil {
		c.errors.Add(1)
		return "", false
	}
	err = gen(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), dst)
	}
	if err != nil {
		os.Remove(f.Name())
		c.errors.Add(1)
		return "", false
	}
	if st, serr := os.Stat(dst); serr == nil {
		c.bytesWritten.Add(uint64(st.Size()))
	}
	return dst, true
}

// GetResults loads the results cached under key; ok reports a hit.
func (c *Cache) GetResults(key Fingerprint) (core.Results, bool) {
	res, _, ok := c.GetResultsDoc(key)
	return res, ok
}

// GetResultsDoc is GetResults that also returns the entry's document: its
// validated payload as read, the core.EncodeResults bytes of res. A
// caller that serves results (the job daemon) sends doc rather than
// encoding res again. A payload that does not decode is a miss, counted
// as corrupt.
func (c *Cache) GetResultsDoc(key Fingerprint) (res core.Results, doc []byte, ok bool) {
	if c == nil {
		return core.Results{}, nil, false
	}
	if doc = c.get(key); doc != nil {
		var err error
		if res, err = core.DecodeResults(doc); err == nil {
			c.resultHits.Add(1)
			return res, doc, true
		}
		c.corrupt.Add(1)
	}
	c.resultMisses.Add(1)
	return core.Results{}, nil, false
}

// PutResults stores res under key.
func (c *Cache) PutResults(key Fingerprint, res core.Results) {
	if c == nil {
		return
	}
	c.put(key, core.EncodeResults(res))
}

// PutResultsDoc stores doc, the core.EncodeResults document of a run's
// results, under key. A caller that also serves the document (the job
// daemon) encodes it once for both.
func (c *Cache) PutResultsDoc(key Fingerprint, doc []byte) {
	if c == nil {
		return
	}
	c.put(key, doc)
}

// HasResult reports whether a result entry exists for key without reading
// it. Planning code uses it to decide whether a trace will be needed at
// all; the entry may still fail validation on the later GetResults, in
// which case the caller falls back to computing.
func (c *Cache) HasResult(key Fingerprint) bool {
	if c == nil {
		return false
	}
	st, err := os.Stat(c.path("result", key))
	return err == nil && st.Mode().IsRegular() && st.Size() >= envHeader
}

// ResultEntry describes one cached result in a ListResults index.
type ResultEntry struct {
	// Fingerprint is the result key's hex digest (the entry's file name).
	Fingerprint string
	// Bytes is the payload size: the canonical encoded results, without
	// the envelope header.
	Bytes int64
}

// ListResults indexes the cached results: one entry per well-formed result
// file, sorted by fingerprint. Entries are identified by file name alone —
// in-flight temp files, dotfiles and foreign names are skipped — so the
// index never reads payloads; a listed entry may still fail envelope
// validation on a later GetResults, which counts as an ordinary miss.
func (c *Cache) ListResults() []ResultEntry {
	if c == nil {
		return nil
	}
	ents, err := os.ReadDir(filepath.Join(c.dir, "result"))
	if err != nil {
		return nil
	}
	out := make([]ResultEntry, 0, len(ents))
	for _, e := range ents {
		name := e.Name()
		if !validFingerprintName(name) {
			continue // temp file, dotfile, or foreign junk
		}
		st, err := e.Info()
		if err != nil || !st.Mode().IsRegular() || st.Size() < envHeader {
			continue
		}
		out = append(out, ResultEntry{Fingerprint: name, Bytes: st.Size() - envHeader})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Fingerprint < out[j].Fingerprint })
	return out
}

// validFingerprintName reports whether name is a full lowercase-hex
// fingerprint digest (every real entry's file name).
func validFingerprintName(name string) bool {
	if len(name) != 2*len(Fingerprint{}) {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Envelope plumbing

func (c *Cache) path(kind string, key Fingerprint) string {
	return filepath.Join(c.dir, kind, key.String())
}

// get reads and validates the envelope of key's result entry, returning
// the payload or nil on any miss (absent, unreadable, or malformed —
// malformed also counts as corrupt). Hit/miss counters are the caller's
// job.
func (c *Cache) get(key Fingerprint) []byte {
	data, err := os.ReadFile(c.path("result", key))
	if err != nil {
		return nil
	}
	c.bytesRead.Add(uint64(len(data)))
	payload, err := openEnvelope(data)
	if err != nil {
		c.corrupt.Add(1)
		return nil
	}
	return payload
}

func openEnvelope(data []byte) ([]byte, error) {
	if len(data) < envHeader {
		return nil, errors.New("artifact: entry shorter than envelope header")
	}
	if string(data[:8]) != envMagic {
		return nil, errors.New("artifact: bad envelope magic")
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != envVersion {
		return nil, fmt.Errorf("artifact: envelope version %d (want %d)", v, envVersion)
	}
	n := binary.LittleEndian.Uint64(data[12:])
	if n != uint64(len(data)-envHeader) {
		return nil, fmt.Errorf("artifact: payload length %d, have %d bytes", n, len(data)-envHeader)
	}
	payload := data[envHeader:]
	want := binary.LittleEndian.Uint64(data[20:])
	if got := crc64.Checksum(payload, crcTable); got != want {
		return nil, fmt.Errorf("artifact: payload checksum mismatch (stored %#x, computed %#x)", want, got)
	}
	return payload, nil
}

// put writes payload as key's result entry atomically: temp file in the
// destination directory, then rename. Failures bump the error counter and
// leave any existing entry untouched.
func (c *Cache) put(key Fingerprint, payload []byte) {
	dst := c.path("result", key)
	var hdr [envHeader]byte
	copy(hdr[:8], envMagic)
	binary.LittleEndian.PutUint32(hdr[8:], envVersion)
	binary.LittleEndian.PutUint64(hdr[12:], uint64(len(payload)))
	binary.LittleEndian.PutUint64(hdr[20:], crc64.Checksum(payload, crcTable))

	f, err := os.CreateTemp(filepath.Dir(dst), "."+key.String()[:16]+".tmp*")
	if err != nil {
		c.errors.Add(1)
		return
	}
	_, err = f.Write(hdr[:])
	if err == nil {
		_, err = f.Write(payload)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), dst)
	}
	if err != nil {
		os.Remove(f.Name())
		c.errors.Add(1)
		return
	}
	c.bytesWritten.Add(uint64(envHeader + len(payload)))
}
