package main

import (
	"context"
	"time"

	"mnpusim/internal/experiments"
	"mnpusim/internal/obs"
	"mnpusim/internal/obs/dtrace"
	"mnpusim/internal/obs/hostprof"
	"mnpusim/internal/sim"
)

// simSample is one simulation as the benchmark saw it.
type simSample struct {
	spec   spec
	lat    time.Duration
	digest string
	err    error
	// res is the full result of a mix; core is core 0 of an Ideal run.
	res  *sim.Result
	core sim.CoreResult

	// Traced re-runs only.
	host   map[string]int64 // hostprof sections, ns
	ticks  int64            // sim.component_ticks
	events int64            // probe events emitted
}

// passResult is one pass of a sweep through experiments.Runner.
type passResult struct {
	samples []simSample
	wall    time.Duration
	reg     *obs.Registry
}

// runPass runs specs once through a fresh experiments.Runner (so its
// memo tables start empty), each Dual or Ideal call as one ForEach item
// on the worker pool. Every run feeds reg, the registry the counts are
// read from.
func runPass(ctx context.Context, specs []spec, workers int, sp *spans, parent *dtrace.Active) passResult {
	reg := obs.NewRegistry()
	r := experiments.NewRunner(
		experiments.WithWorkers(workers),
		experiments.WithMetrics(reg),
		experiments.WithContext(ctx),
	)
	out := make([]simSample, len(specs))
	fe := sp.start(parent, "experiments", "ForEach")
	start := time.Now()
	// Items record their own errors and always return nil.
	_ = r.ForEach(len(specs), func(i int) error {
		s := specs[i]
		out[i].spec = s
		name := "Dual " + s.key()
		if s.ideal() {
			name = "Ideal " + s.A
		}
		call := sp.start(fe, "experiments", name)
		t0 := time.Now()
		if s.ideal() {
			out[i].core, out[i].err = r.Ideal(s.A)
			out[i].lat = time.Since(t0)
			if out[i].err == nil {
				out[i].digest, out[i].err = digestCore(out[i].core)
			}
		} else {
			res, err := r.Dual(s.A, s.B, s.Sharing)
			out[i].lat = time.Since(t0)
			out[i].res, out[i].err = &res, err
			if err == nil {
				out[i].digest, out[i].err = digest(s, res)
			}
		}
		call.End()
		return nil
	})
	wall := time.Since(start)
	fe.End()
	return passResult{samples: out, wall: wall, reg: reg}
}

// countSink counts probe events; it stands in for the serving daemon's
// per-job progress observer, which is internal to the daemon.
type countSink struct{ n int64 }

func (c *countSink) Emit(obs.Event) { c.n++ }

// rerun simulates specs directly through sim.RunContext, using an
// experiments.Runner's ForEach as the worker pool. With traced set,
// every run carries its own host profiler, metrics registry and event
// counter. It returns the samples and the pool's wall time.
func rerun(ctx context.Context, sp *spans, specs []spec, workers int, traced bool) ([]simSample, time.Duration) {
	out := make([]simSample, len(specs))
	r := experiments.NewRunner(experiments.WithWorkers(workers), experiments.WithContext(ctx))
	fe := sp.start(nil, "experiments", "ForEach traced re-run")
	start := time.Now()
	// Items record their own errors and always return nil.
	_ = r.ForEach(len(specs), func(i int) error {
		out[i] = rerunOne(ctx, sp, fe, specs[i], traced)
		return nil
	})
	wall := time.Since(start)
	fe.End()
	return out, wall
}

func rerunOne(ctx context.Context, sp *spans, parent *dtrace.Active, s spec, traced bool) simSample {
	smp := simSample{spec: s}
	cfg, err := s.config()
	if err != nil {
		smp.err = err
		return smp
	}
	var (
		prof *hostprof.Profiler
		reg  *obs.Registry
		cnt  *countSink
	)
	if traced {
		prof, reg, cnt = hostprof.New(), obs.NewRegistry(), &countSink{}
		cfg.HostProf, cfg.Metrics, cfg.Obs = prof, reg, cnt
	}
	call := sp.start(parent, "sim", "RunContext "+s.key())
	t0 := time.Now()
	res, err := sim.RunContext(ctx, cfg)
	smp.lat = time.Since(t0)
	call.End()
	if err != nil {
		smp.err = err
		return smp
	}
	smp.res = &res
	smp.digest, smp.err = digest(s, res)
	if traced {
		smp.host = prof.Breakdown()
		smp.ticks = reg.Snapshot().Value("sim.component_ticks")
		smp.events = cnt.n
	}
	return smp
}
