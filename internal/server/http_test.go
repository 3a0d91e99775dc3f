package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	apiv1 "vcache/api/v1"
	"vcache/internal/artifact"
	"vcache/internal/core"
	"vcache/internal/workloads"
)

// newHTTPServer boots a real daemon (real simulations, disk-backed
// artifact cache in a test temp dir) behind httptest.
func newHTTPServer(t *testing.T) (*apiv1.Client, *Server) {
	t.Helper()
	cache, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatalf("artifact.Open: %v", err)
	}
	s := New(Options{Workers: 1, QueueCap: 16, Cache: cache})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Close(ctx)
	})
	return apiv1.NewClient(ts.URL), s
}

// nwSpec is the small fast workload used end-to-end (~20ms cold).
func nwSpec() apiv1.JobSpec {
	return apiv1.JobSpec{
		APIVersion: apiv1.Version,
		Workload:   apiv1.WorkloadSpec{Name: "nw", Params: workloads.Params{Scale: 1}},
		Design:     apiv1.DesignSpec{Preset: "vc-opt"},
	}
}

func TestHTTPServedResultMatchesLocalRun(t *testing.T) {
	client, _ := newHTTPServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	info, err := client.SubmitWait(ctx, nwSpec())
	if err != nil {
		t.Fatalf("SubmitWait: %v", err)
	}
	if info.State != apiv1.JobDone {
		t.Fatalf("job state %s (%s), want done", info.State, info.Error)
	}
	if info.CacheHit || info.Coalesced {
		t.Errorf("first-ever job marked cache_hit=%v coalesced=%v", info.CacheHit, info.Coalesced)
	}
	if len(info.Result) == 0 {
		t.Fatal("wait-mode response did not inline the result")
	}

	// The acceptance bar: bytes fetched over HTTP must equal a plain local
	// library run of the same spec, with no options.
	_, raw, err := client.Result(ctx, info.ID)
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	cfg, p, err := nwSpec().Resolve()
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	g, _ := workloads.ByName("nw")
	local, err := core.RunContext(ctx, cfg, g.Build(p))
	if err != nil {
		t.Fatalf("local run: %v", err)
	}
	if want := string(apiv1.EncodeResults(local)); string(raw) != want {
		t.Errorf("served result differs from local run:\nserved: %.120s\nlocal:  %.120s", raw, want)
	}
	if strings.TrimSpace(string(info.Result)) != strings.TrimSpace(string(raw)) {
		t.Error("inlined wait-mode result differs from the result endpoint")
	}
}

// TestHTTPLifetimesMatchLocalRun: a job whose full Config sets
// TrackLifetimes returns through Client.Result the lifetime CDFs a local
// run records, when simulated and again when served from the cache.
func TestHTTPLifetimesMatchLocalRun(t *testing.T) {
	client, _ := newHTTPServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	cfg := core.DesignBaseline512()
	cfg.TrackLifetimes = true
	spec := nwSpec()
	spec.Design = apiv1.DesignSpec{Config: &cfg}
	rcfg, p, err := spec.Resolve()
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	g, _ := workloads.ByName("nw")
	local, err := core.RunContext(ctx, rcfg, g.Build(p))
	if err != nil {
		t.Fatalf("local run: %v", err)
	}
	if lt := local.Lifetimes; lt == nil || lt.TLBEntries.N() == 0 || lt.L1Data.N() == 0 {
		t.Fatal("local run recorded no lifetimes")
	}
	for _, hit := range []bool{false, true} {
		info, err := client.SubmitWait(ctx, spec)
		if err != nil {
			t.Fatalf("SubmitWait: %v", err)
		}
		if info.State != apiv1.JobDone || info.CacheHit != hit {
			t.Fatalf("job state %s (%s), cache_hit=%v; want done, cache_hit=%v", info.State, info.Error, info.CacheHit, hit)
		}
		got, _, err := client.Result(ctx, info.ID)
		if err != nil {
			t.Fatalf("Result: %v", err)
		}
		if !reflect.DeepEqual(got.Lifetimes, local.Lifetimes) {
			t.Errorf("cache_hit=%v: served lifetimes differ from a local run's", hit)
		}
	}
}

// TestSecondDesignStoresNoTrace: a job with the same workload and params
// as an earlier one but another design builds the trace again rather than
// reading one back: the cache holds results only, neither job stores or
// looks up a trace, and the second job still serves the bytes a plain
// library run computes.
func TestSecondDesignStoresNoTrace(t *testing.T) {
	client, s := newHTTPServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	if _, err := client.SubmitWait(ctx, nwSpec()); err != nil {
		t.Fatalf("first SubmitWait: %v", err)
	}
	spec := nwSpec()
	spec.Design.Preset = "baseline-512"
	info, err := client.SubmitWait(ctx, spec)
	if err != nil {
		t.Fatalf("second SubmitWait: %v", err)
	}
	if info.State != apiv1.JobDone || info.CacheHit {
		t.Fatalf("second job state %s (%s), cache_hit=%v; want a simulated run", info.State, info.Error, info.CacheHit)
	}
	if st := s.cache.Stats(); st.TraceHits+st.TraceMisses != 0 {
		t.Fatalf("cache stats %+v; want no trace lookups", st)
	}
	if ents, err := os.ReadDir(filepath.Join(s.cache.Dir(), "ctrace")); err != nil || len(ents) != 0 {
		t.Fatalf("jobs left %d trace entries (%v); want none", len(ents), err)
	}
	_, raw, err := client.Result(ctx, info.ID)
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	cfg, p, err := spec.Resolve()
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	g, _ := workloads.ByName("nw")
	local, err := core.RunContext(ctx, cfg, g.Build(p))
	if err != nil {
		t.Fatalf("local run: %v", err)
	}
	if string(raw) != string(apiv1.EncodeResults(local)) {
		t.Error("second design's result differs from a local run")
	}
}

func TestHTTPWarmCacheHitIsByteIdentical(t *testing.T) {
	client, _ := newHTTPServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	first, err := client.SubmitWait(ctx, nwSpec())
	if err != nil {
		t.Fatalf("cold SubmitWait: %v", err)
	}
	second, err := client.SubmitWait(ctx, nwSpec())
	if err != nil {
		t.Fatalf("warm SubmitWait: %v", err)
	}
	if !second.CacheHit {
		t.Error("second identical submission not served from the cache")
	}
	if second.Fingerprint != first.Fingerprint {
		t.Error("identical submissions got different fingerprints")
	}
	_, rawA, err := client.Result(ctx, first.ID)
	if err != nil {
		t.Fatalf("first result: %v", err)
	}
	_, rawB, err := client.Result(ctx, second.ID)
	if err != nil {
		t.Fatalf("second result: %v", err)
	}
	if string(rawA) != string(rawB) {
		t.Error("cache-hit result bytes differ from the cold run's")
	}
	// The artifact cache's counters reach /v1/metrics: one result hit.
	resp, err := http.Get(client.BaseURL + "/v1/metrics")
	if err != nil {
		t.Fatalf("GET /v1/metrics: %v", err)
	}
	defer resp.Body.Close()
	var doc struct{ Metrics map[string]float64 }
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decoding /v1/metrics: %v", err)
	}
	if got, ok := doc.Metrics["artifact.result_hits"]; !ok || got != 1 {
		t.Errorf("/v1/metrics artifact.result_hits = %v (present %v), want 1", got, ok)
	}
}

func TestHTTPEventsStream(t *testing.T) {
	client, _ := newHTTPServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	info, err := client.Submit(ctx, nwSpec())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	seen := map[string]int{}
	var last apiv1.Event
	err = client.Events(ctx, info.ID, func(ev apiv1.Event) error {
		seen[ev.Type]++
		last = ev
		return nil
	})
	if err != nil {
		t.Fatalf("Events: %v", err)
	}
	if seen["state"] == 0 || seen["done"] != 1 {
		t.Errorf("event mix %v, want state events and exactly one done", seen)
	}
	if seen["metrics"] != 1 {
		t.Errorf("event mix %v, want exactly one metrics snapshot", seen)
	}
	if last.Type != "done" || last.State != apiv1.JobDone {
		t.Errorf("last event %+v, want done/done", last)
	}
}

func TestHTTPQueueFull429(t *testing.T) {
	// A tiny queue over the real runner: block the worker with a slow
	// job, fill the queue, then overflow it.
	client, s := newHTTPServer(t)
	g := newGateRunner()
	s.runner = g // swap in the blocking fake before any submission
	s.queueCap = 1
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	sp := nwSpec()
	if _, err := client.Submit(ctx, sp); err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	waitStart(t, g)
	sp.Workload.Params.Seed = 2
	if _, err := client.Submit(ctx, sp); err != nil {
		t.Fatalf("submit 2: %v", err)
	}
	sp.Workload.Params.Seed = 3
	_, err := client.Submit(ctx, sp)
	var ae *apiv1.APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: %v, want 429 APIError", err)
	}
	if ae.RetryAfter <= 0 {
		t.Errorf("429 carried no Retry-After hint: %+v", ae)
	}
	g.gate <- struct{}{}
	g.gate <- struct{}{}
}

func TestHTTPCancelAndNotFound(t *testing.T) {
	client, s := newHTTPServer(t)
	g := newGateRunner()
	s.runner = g
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	info, err := client.Submit(ctx, nwSpec())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitStart(t, g)
	if err := client.Cancel(ctx, info.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	final, err := client.Wait(ctx, info.ID, 0)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if final.State != apiv1.JobCanceled {
		t.Errorf("state after DELETE: %s, want canceled", final.State)
	}
	if _, err := client.Job(ctx, "j999999"); !errors.Is(err, apiv1.ErrNotFound) {
		t.Errorf("unknown job: %v, want ErrNotFound", err)
	}
	if _, _, err := client.Result(ctx, info.ID); err == nil {
		t.Error("canceled job served a result over HTTP")
	}
}

func TestHTTPHealthQueueMetrics(t *testing.T) {
	client, _ := newHTTPServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	h, err := client.Health(ctx)
	if err != nil {
		t.Fatalf("Health: %v", err)
	}
	if h.Status != "ok" || h.APIVersion != apiv1.Version || h.Workers != 1 {
		t.Errorf("health %+v", h)
	}
	q, err := client.Queue(ctx)
	if err != nil {
		t.Fatalf("Queue: %v", err)
	}
	if q.Workers != 1 || q.Queued != 0 {
		t.Errorf("queue %+v, want idle single worker", q)
	}
	resp, err := http.Get(client.BaseURL + "/v1/metrics")
	if err != nil {
		t.Fatalf("GET /v1/metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("metrics status %d", resp.StatusCode)
	}
}

func TestHTTPRejectsBadSpec(t *testing.T) {
	client, _ := newHTTPServer(t)
	resp, err := http.Post(client.BaseURL+"/v1/jobs", "application/json",
		strings.NewReader(`{"api_version":"v1","workload":{"name":"nw"},"design":{"preset":"vc"},"surprise":1}`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown-field spec got %d, want 400", resp.StatusCode)
	}
}

func TestHTTPResultsIndex(t *testing.T) {
	client, _ := newHTTPServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Empty cache: empty index, not an error.
	idx, err := client.Results(ctx, 0, 0)
	if err != nil {
		t.Fatalf("Results (empty): %v", err)
	}
	if idx.Total != 0 || len(idx.Results) != 0 || idx.APIVersion != apiv1.Version {
		t.Fatalf("empty index = %+v", idx)
	}

	// Run two distinct jobs; both land in the shared cache.
	spec2 := nwSpec()
	spec2.Design.Preset = "baseline-512"
	var fps []string
	for _, spec := range []apiv1.JobSpec{nwSpec(), spec2} {
		info, err := client.SubmitWait(ctx, spec)
		if err != nil || info.State != apiv1.JobDone {
			t.Fatalf("SubmitWait: %v (state %s %s)", err, info.State, info.Error)
		}
		fps = append(fps, info.Fingerprint)
	}

	idx, err = client.Results(ctx, 0, 0)
	if err != nil {
		t.Fatalf("Results: %v", err)
	}
	if idx.Total != 2 || len(idx.Results) != 2 {
		t.Fatalf("index total %d, %d entries; want 2, 2", idx.Total, len(idx.Results))
	}
	if idx.Results[0].Fingerprint >= idx.Results[1].Fingerprint {
		t.Errorf("index not sorted: %q >= %q", idx.Results[0].Fingerprint, idx.Results[1].Fingerprint)
	}
	for _, e := range idx.Results {
		if e.Bytes <= 0 {
			t.Errorf("entry %s has size %d", e.Fingerprint, e.Bytes)
		}
	}
	// Every job fingerprint must appear in the index.
	have := map[string]bool{}
	for _, e := range idx.Results {
		have[e.Fingerprint] = true
	}
	for _, fp := range fps {
		if !have[fp] {
			t.Errorf("job fingerprint %s missing from index %v", fp, have)
		}
	}

	// Pagination: one entry per page, then past-the-end.
	p0, err := client.Results(ctx, 0, 1)
	if err != nil {
		t.Fatalf("Results page 0: %v", err)
	}
	p1, err := client.Results(ctx, 1, 1)
	if err != nil {
		t.Fatalf("Results page 1: %v", err)
	}
	if len(p0.Results) != 1 || len(p1.Results) != 1 || p0.Total != 2 || p1.Total != 2 {
		t.Fatalf("pages: %+v / %+v", p0, p1)
	}
	if p0.Results[0] != idx.Results[0] || p1.Results[0] != idx.Results[1] {
		t.Errorf("paged entries disagree with full index")
	}
	past, err := client.Results(ctx, 5, 1)
	if err != nil || past.Total != 2 || len(past.Results) != 0 {
		t.Fatalf("past-the-end page: %+v err %v", past, err)
	}

	// Bad query values are 400s.
	for _, q := range []string{"offset=-1", "limit=-1", "offset=x"} {
		resp, err := http.Get(client.BaseURL + "/v1/results?" + q)
		if err != nil {
			t.Fatalf("GET ?%s: %v", q, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET ?%s = %d, want 400", q, resp.StatusCode)
		}
	}
}
