// Package obs is the simulator's observability layer: a per-System metrics
// registry and a cycle-stamped event-trace sink.
//
// The registry gives every timing component (caches, TLBs, IOMMU, walker,
// FBT, DRAM, GPU front-end, interconnect) a hierarchical, addressable stats
// surface: components register their existing counters by name
// ("l1.cu3.read_hits", "iommu.tlb.misses", "ptw.walks") at construction
// time, and the registry reads them on demand. Registration stores a
// *pointer* to the component's live counter, so the hot path keeps bumping
// plain struct fields exactly as before — observing a run costs nothing
// until somebody takes a Snapshot.
//
// The event-trace side (trace.go) records individual cycle-stamped events
// (TLB misses, IOMMU enqueue/dequeue, walk start/finish, FBT probes) through
// nil-safe Emitters into a Chrome-trace-format writer. With no sink
// attached the emitters compile down to a nil check, keeping the disabled
// path allocation-free.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"

	"vcache/internal/stats"
)

// metric is one registered measurement: a name and a way to read it.
type metric struct {
	name string
	read func() float64
}

// Registry holds a System's named metrics. It is built once at system
// construction and read at snapshot time; it is not safe for concurrent
// mutation (simulations are single-threaded, like the engine itself).
type Registry struct {
	metrics []metric
	index   map[string]int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]int)}
}

func (r *Registry) add(name string, read func() float64) {
	if _, dup := r.index[name]; dup {
		panic(fmt.Sprintf("obs: metric %q registered twice", name))
	}
	r.index[name] = len(r.metrics)
	r.metrics = append(r.metrics, metric{name: name, read: read})
}

// Counter registers a monotonically-increasing uint64 the component already
// owns. The registry reads *p lazily, so the component's hot path is
// untouched.
func (r *Registry) Counter(name string, p *uint64) {
	r.add(name, func() float64 { return float64(*p) })
}

// IntGauge registers an int-valued measurement read from *p.
func (r *Registry) IntGauge(name string, p *int) {
	r.add(name, func() float64 { return float64(*p) })
}

// Gauge registers a computed measurement.
func (r *Registry) Gauge(name string, f func() float64) {
	r.add(name, f)
}

// Sampler registers an interval sampler (see stats.IntervalSampler) under
// name: "<name>.total" is the event count and "<name>.mean" the mean
// per-cycle rate over its windows.
func (r *Registry) Sampler(name string, s *stats.IntervalSampler) {
	r.add(name+".total", func() float64 { return float64(s.Total()) })
	r.add(name+".mean", s.Mean)
}

// Histogram registers a histogram's observation count under "<name>.count".
func (r *Registry) Histogram(name string, h *stats.Histogram) {
	r.add(name+".count", func() float64 { return float64(h.Count) })
}

// Scope returns a registrar that prefixes every metric name with
// "<prefix>.", so components can register under their own position in the
// hierarchy without knowing it.
func (r *Registry) Scope(prefix string) Scope { return Scope{r: r, prefix: prefix + "."} }

// Scope is a prefixed view of a Registry.
type Scope struct {
	r      *Registry
	prefix string
}

// Counter registers a counter under the scope's prefix.
func (s Scope) Counter(name string, p *uint64) { s.r.Counter(s.prefix+name, p) }

// IntGauge registers an int gauge under the scope's prefix.
func (s Scope) IntGauge(name string, p *int) { s.r.IntGauge(s.prefix+name, p) }

// Gauge registers a computed gauge under the scope's prefix.
func (s Scope) Gauge(name string, f func() float64) { s.r.Gauge(s.prefix+name, f) }

// Sampler registers an interval sampler under the scope's prefix.
func (s Scope) Sampler(name string, sm *stats.IntervalSampler) { s.r.Sampler(s.prefix+name, sm) }

// Histogram registers a histogram under the scope's prefix.
func (s Scope) Histogram(name string, h *stats.Histogram) { s.r.Histogram(s.prefix+name, h) }

// Scope nests a further prefix.
func (s Scope) Scope(prefix string) Scope {
	return Scope{r: s.r, prefix: s.prefix + prefix + "."}
}

// Len returns the number of registered metrics.
func (r *Registry) Len() int { return len(r.metrics) }

// Names returns every registered metric name, sorted. Sorting makes export
// order deterministic even when registration order is not (e.g. metrics
// registered while iterating a map).
func (r *Registry) Names() []string {
	out := make([]string, len(r.metrics))
	for i, m := range r.metrics {
		out[i] = m.name
	}
	sort.Strings(out)
	return out
}

// Value reads one metric by name.
func (r *Registry) Value(name string) (float64, bool) {
	i, ok := r.index[name]
	if !ok {
		return 0, false
	}
	return r.metrics[i].read(), true
}

// Snapshot reads every metric, stamped with the given cycle. Names are
// sorted and Values aligned to them.
func (r *Registry) Snapshot(cycle uint64) Snapshot {
	s := Snapshot{Cycle: cycle, Names: r.Names(), Values: make([]float64, len(r.metrics))}
	for i, name := range s.Names {
		s.Values[i] = r.metrics[r.index[name]].read()
	}
	return s
}

// Snapshot is a point-in-time reading of a registry: sorted names with
// aligned values, stamped with the cycle it was taken at.
type Snapshot struct {
	Cycle  uint64
	Names  []string
	Values []float64
}

// Value looks one metric up by name.
func (s Snapshot) Value(name string) (float64, bool) {
	i := sort.SearchStrings(s.Names, name)
	if i < len(s.Names) && s.Names[i] == name {
		return s.Values[i], true
	}
	return 0, false
}

// Sum adds up every metric whose name matches all the given fragments with
// "*" wildcards between them (e.g. Sum("l1.", ".read_hits") totals the
// per-CU read-hit counters). A fragment must appear after the previous one.
func (s Snapshot) Sum(prefix, suffix string) float64 {
	var total float64
	for i, name := range s.Names {
		if len(name) >= len(prefix)+len(suffix) &&
			name[:len(prefix)] == prefix && name[len(name)-len(suffix):] == suffix {
			total += s.Values[i]
		}
	}
	return total
}

// AppendJSON appends the snapshot as a single JSON object:
// {"cycle":N,"metrics":{"name":value,...}}.
func (s Snapshot) AppendJSON(b []byte) []byte {
	b = append(b, `{"cycle":`...)
	b = strconv.AppendUint(b, s.Cycle, 10)
	b = append(b, `,"metrics":{`...)
	for i, name := range s.Names {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(b, name)
		b = append(b, ':')
		b = appendJSONFloat(b, s.Values[i])
	}
	b = append(b, "}}"...)
	return b
}

// AppendRecord appends the snapshot as one JSONL record labeled with the
// workload and design it measured:
// {"workload":"…","design":"…","snapshot":{…}} and a newline.
func (s Snapshot) AppendRecord(b []byte, workload, design string) []byte {
	b = append(b, `{"workload":`...)
	b = strconv.AppendQuote(b, workload)
	b = append(b, `,"design":`...)
	b = strconv.AppendQuote(b, design)
	b = append(b, `,"snapshot":`...)
	b = s.AppendJSON(b)
	return append(b, "}\n"...)
}

// appendJSONFloat formats v compactly and JSON-safely (no NaN/Inf).
func appendJSONFloat(b []byte, v float64) []byte {
	if v != v || v > 1e308 || v < -1e308 {
		return append(b, '0')
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// WriteJSONL writes the snapshot as one JSONL record.
func (s Snapshot) WriteJSONL(w io.Writer) error {
	b := s.AppendJSON(nil)
	b = append(b, '\n')
	_, err := w.Write(b)
	return err
}
