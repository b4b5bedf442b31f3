package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"mnpusim/internal/obs"
	"mnpusim/internal/obs/dtrace"
)

// spans records benchmark-owned spans around calls into each layer,
// one dtrace service per layer. A nil *spans records nothing, so the
// untraced run pays one nil check per call.
type spans struct {
	store   *dtrace.Store
	tracers map[string]*dtrace.Tracer
	root    *dtrace.Active
}

// layers are the span services, one per layer the benchmark calls into.
// The replay's calls into mmu and dram are far too many for spans; one
// span covers the whole drive, and counters time the calls inside it.
var layers = []string{"bench", "tile", "experiments", "sim", "serve/client", "mmu"}

func newSpans(workload string) *spans {
	sp := &spans{store: dtrace.NewStore(1, 1<<16), tracers: map[string]*dtrace.Tracer{}}
	for _, l := range layers {
		sp.tracers[l] = dtrace.NewTracer(l, sp.store)
	}
	sp.root = sp.tracers["bench"].Start(dtrace.SpanContext{}, "bench "+workload)
	return sp
}

// start opens a span on layer's track under parent (the root when
// parent is nil).
func (sp *spans) start(parent *dtrace.Active, layer, name string) *dtrace.Active {
	if sp == nil {
		return nil
	}
	if parent == nil {
		parent = sp.root
	}
	return sp.tracers[layer].Start(parent.Context(), name)
}

// finish ends the root span, writes every span as a Chrome trace to
// path, validates the file, and returns each layer's self time: span
// time minus the time its children cover.
func (sp *spans) finish(path string) (map[string]int64, error) {
	sp.root.End()
	all, dropped := sp.store.Get(sp.root.Context().TraceID)
	if dropped > 0 {
		return nil, fmt.Errorf("span store dropped %d spans", dropped)
	}
	var buf bytes.Buffer
	if err := dtrace.WriteChromeTrace(&buf, all); err != nil {
		return nil, err
	}
	if _, err := obs.ValidateChromeTrace(buf.Bytes()); err != nil {
		return nil, fmt.Errorf("span file: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	return selfTimes(all), nil
}

// selfTimes sums, per layer, each span's duration minus the union of
// its children's intervals (clipped to the span).
func selfTimes(all []dtrace.Span) map[string]int64 {
	kids := map[string][][2]int64{}
	for _, s := range all {
		if s.ParentID != "" {
			kids[s.ParentID] = append(kids[s.ParentID], [2]int64{s.StartUnixNS, s.StartUnixNS + s.DurNS})
		}
	}
	out := map[string]int64{}
	for _, s := range all {
		out[s.Service] += s.DurNS - covered(kids[s.SpanID], s.StartUnixNS, s.StartUnixNS+s.DurNS)
	}
	return out
}

// covered returns how much of [lo, hi) the intervals cover.
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := lo
	for _, v := range iv {
		a, b := max(v[0], cur), min(v[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}
