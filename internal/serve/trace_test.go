package serve

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mnpusim/internal/obs/dtrace"
	"mnpusim/internal/serve/client"
	"mnpusim/internal/sim"
)

// testRoot is a fixed, sampled W3C trace context (the traceparent
// spec's own example IDs) used as the incoming parent in these tests.
func testRoot() dtrace.SpanContext {
	return dtrace.SpanContext{
		TraceID: "4bf92f3577b34da6a3ce929d0e0e4736",
		SpanID:  "00f067aa0ba902b7",
		Sampled: true,
	}
}

// spanIndex maps span IDs to spans and groups them by service.
type spanIndex struct {
	byID      map[string]dtrace.Span
	byService map[string][]dtrace.Span
}

func indexSpans(t *testing.T, spans []dtrace.Span, wantTrace string) spanIndex {
	t.Helper()
	idx := spanIndex{byID: map[string]dtrace.Span{}, byService: map[string][]dtrace.Span{}}
	for _, sp := range spans {
		if sp.TraceID != wantTrace {
			t.Fatalf("span %q has trace ID %s, want %s", sp.Name, sp.TraceID, wantTrace)
		}
		idx.byID[sp.SpanID] = sp
		idx.byService[sp.Service] = append(idx.byService[sp.Service], sp)
	}
	return idx
}

// find returns the unique span of service whose name starts with
// prefix.
func (idx spanIndex) find(t *testing.T, service, prefix string) dtrace.Span {
	t.Helper()
	var found []dtrace.Span
	for _, sp := range idx.byService[service] {
		if strings.HasPrefix(sp.Name, prefix) {
			found = append(found, sp)
		}
	}
	if len(found) != 1 {
		t.Fatalf("service %s: %d spans named %q*, want 1 (have %v)", service, len(found), prefix, idx.byService[service])
	}
	return found[0]
}

// traceService is the service name a daemon stamps on its spans.
const traceService = "mnpuserved"

// TestTraceparentSoloJob submits a job carrying a W3C traceparent and
// checks the daemon's trace: one trace ID end to end, the HTTP span
// parented on the incoming context, the cache lookup, queue wait, and
// sim run parented on the HTTP span, and the sim run carrying the
// config fingerprint.
func TestTraceparentSoloJob(t *testing.T) {
	s := newStubServer(t, Config{Workers: 1}, func(ctx context.Context, c sim.Config) (sim.Result, error) {
		return fakeResult(7), nil
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := ncfSpec()
	_, key, err := resolveSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	root := testRoot()
	ctx := dtrace.With(context.Background(), root)
	cl := client.New(ts.URL)
	v, err := cl.SubmitJob(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if final, err := cl.WaitJob(ctx, v.ID, 2*time.Millisecond); err != nil || final.Status != StatusDone {
		t.Fatalf("job: %v %v", final.Status, err)
	}

	view, err := cl.Trace(ctx, root.TraceID)
	if err != nil {
		t.Fatalf("Trace: %v", err)
	}
	idx := indexSpans(t, view.Spans, root.TraceID)
	if len(idx.byService) != 1 {
		t.Fatalf("spans from %d services, want 1: %v", len(idx.byService), idx.byService)
	}
	httpSpan := idx.find(t, traceService, "http POST /v1/jobs")
	if httpSpan.ParentID != root.SpanID {
		t.Errorf("http span parent = %q, want incoming traceparent span %q", httpSpan.ParentID, root.SpanID)
	}
	for _, name := range []string{"cache_lookup", "queue_wait", "sim_run"} {
		sp := idx.find(t, traceService, name)
		if sp.ParentID != httpSpan.SpanID {
			t.Errorf("%s span parent = %q, want http span %q", name, sp.ParentID, httpSpan.SpanID)
		}
	}
	if sr := idx.find(t, traceService, "sim_run"); sr.Attrs["fingerprint"] != key {
		t.Errorf("sim_run fingerprint = %q, want job key %q", sr.Attrs["fingerprint"], key)
	}
}

// TestTraceSweepSolo drives a traced sweep and checks the daemon's
// trace: one trace ID, a coordination span parented on the submitting
// request, one unit span per grid cell under it, one sim run per
// distinct unit, and every parent edge resolving.
func TestTraceSweepSolo(t *testing.T) {
	s := newStubServer(t, Config{Workers: 2, SweepParallel: 4}, func(ctx context.Context, c sim.Config) (sim.Result, error) {
		res := sim.Result{GlobalCycles: 200}
		for i := 0; i < c.Cores(); i++ {
			res.Cores = append(res.Cores, sim.CoreResult{Net: "stub", Cycles: int64(100 + 10*i)})
		}
		return res, nil
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	root := testRoot()
	ctx := dtrace.With(context.Background(), root)
	cl := client.New(ts.URL)
	sv, err := cl.SubmitSweep(ctx, SweepSpec{
		Cores: 2, Workloads: []string{"ncf", "gpt2", "alex"}, Sharing: []string{"static"},
	})
	if err != nil {
		t.Fatal(err)
	}
	final, err := cl.WaitSweep(ctx, sv.ID, 5*time.Millisecond)
	if err != nil || final.Status != StatusDone {
		t.Fatalf("sweep: %v %v (%s)", final.Status, err, final.Error)
	}
	// 6 mixes (pairs with repetition) x 1 level + 3 ideal baselines.
	if final.Total != 9 {
		t.Fatalf("sweep ran %d units, want 9", final.Total)
	}

	view, err := cl.Trace(ctx, root.TraceID)
	if err != nil {
		t.Fatalf("Trace: %v", err)
	}
	idx := indexSpans(t, view.Spans, root.TraceID)

	httpSpan := idx.find(t, traceService, "http POST /v1/sweeps")
	if httpSpan.ParentID != root.SpanID {
		t.Errorf("sweep http span parent = %q, want %q", httpSpan.ParentID, root.SpanID)
	}
	sweepSpan := idx.find(t, traceService, "sweep coordinate")
	if sweepSpan.ParentID != httpSpan.SpanID {
		t.Errorf("sweep span parent = %q, want http span %q", sweepSpan.ParentID, httpSpan.SpanID)
	}
	if sweepSpan.Attrs["status"] != string(StatusDone) {
		t.Errorf("sweep span status attr = %q, want done", sweepSpan.Attrs["status"])
	}
	units, sims := 0, 0
	for _, sp := range view.Spans {
		switch {
		case strings.HasPrefix(sp.Name, "unit "):
			units++
			if sp.ParentID != sweepSpan.SpanID {
				t.Errorf("unit span %q parent = %q, want sweep span %q", sp.Name, sp.ParentID, sweepSpan.SpanID)
			}
		case sp.Name == "sim_run":
			sims++
		}
		if sp.ParentID != "" && sp.ParentID != root.SpanID {
			if _, ok := idx.byID[sp.ParentID]; !ok {
				t.Errorf("span %q references missing parent %s", sp.Name, sp.ParentID)
			}
		}
	}
	if units != 9 {
		t.Errorf("unit spans = %d, want 9", units)
	}
	if sims != 9 {
		t.Errorf("sim_run spans = %d, want 9 (all units distinct, no cache hits)", sims)
	}
}

// TestTracingOffByteIdenticalResults is the non-perturbation proof:
// the same real simulation, run through a traced daemon and a
// tracing-disabled daemon, produces byte-identical result payloads —
// tracing observes host time only and never touches simulated state.
func TestTracingOffByteIdenticalResults(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation")
	}
	run := func(cfg Config) []byte {
		t.Helper()
		s := mustNew(t, cfg)
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_ = s.Shutdown(ctx)
		})
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		ctx := dtrace.With(context.Background(), testRoot())
		cl := client.New(ts.URL)
		v, err := cl.SubmitJob(ctx, ncfSpec())
		if err != nil {
			t.Fatal(err)
		}
		if v, err = cl.WaitJob(ctx, v.ID, 5*time.Millisecond); err != nil || v.Status != StatusDone {
			t.Fatalf("job: %v %v (%s)", v.Status, err, v.Error)
		}
		b, err := cl.JobResult(ctx, v.ID)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	traced := run(Config{Workers: 1})
	untraced := run(Config{Workers: 1, DisableTracing: true})
	if !bytes.Equal(traced, untraced) {
		t.Fatalf("results differ with tracing on vs off:\n on: %s\noff: %s", traced, untraced)
	}
}

// TestTraceEndpointValidation covers the ID shape check and the
// not-found path.
func TestTraceEndpointValidation(t *testing.T) {
	s := newStubServer(t, Config{}, func(ctx context.Context, c sim.Config) (sim.Result, error) {
		return fakeResult(1), nil
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, id := range []string{"xyz", strings.Repeat("0", 32), strings.Repeat("A", 32)} {
		resp, err := http.Get(ts.URL + "/v1/traces/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET /v1/traces/%s = %d, want 400", id, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/traces/" + strings.Repeat("ab", 16))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown trace = %d, want 404", resp.StatusCode)
	}
}
