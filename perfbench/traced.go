package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"mnpusim/internal/obs"
	"mnpusim/internal/obs/hostprof"
	"mnpusim/internal/obs/recorder"
	"mnpusim/internal/sim"
)

// overheadReps is how many times each overhead leg runs; the legs
// interleave and each reports its median.
const overheadReps = 2

// hostTotals sums the traced re-run's hostprof sections.
type hostTotals struct {
	sims                                    int
	run, heap, core, mmu, dram, ticks, evts int64
}

// tracedRun is the part of a -trace 1 run after the timed phase: it
// re-runs every simulation with the host profiler attached, measures
// observer and profiler overhead and the layer replay on the
// workload's probe configuration, and writes and validates the span
// file. It then reports every per-layer metric.
func (b *bench) tracedRun(ctx context.Context) error {
	samples, wall := rerun(ctx, b.sp, b.specs, b.workers, true)
	var (
		ht   hostTotals
		lats []float64
		busy time.Duration
	)
	for _, smp := range samples {
		err := smp.err
		if err == nil {
			err = b.golden.check(smp.spec, smp.digest)
		}
		b.rep.op(err)
		if smp.err != nil {
			continue
		}
		b.rep.check(checkSections(smp))
		ht.sims++
		ht.run += smp.host[hostprof.SecRun.String()]
		ht.heap += smp.host[hostprof.SecKernelHeap.String()]
		ht.core += smp.host[hostprof.SecTickCore.String()]
		ht.mmu += smp.host[hostprof.SecTickMMU.String()]
		ht.dram += smp.host[hostprof.SecTickDRAM.String()]
		ht.ticks += smp.ticks
		ht.evts += smp.events
		lats = append(lats, smp.lat.Seconds())
		busy += smp.lat
	}
	if b.workload == "serve-jobs" {
		// The daemon does not use experiments; its pool figures come
		// from the re-run, whose pool is experiments.Runner.ForEach.
		b.expSimS = median(lats)
		b.expPoolBusy = busy.Seconds() / (float64(b.workers) * wall.Seconds())
	}

	probe := probeSpec(b.workload, b.specs)
	observer, traceOv, err := b.overheads(ctx, probe)
	if err != nil {
		return err
	}
	cfg, err := probe.config()
	if err != nil {
		return err
	}
	span := b.sp.start(nil, "sim", "replay record "+probe.key())
	res, stream, err := record(cfg)
	span.End()
	if err == nil {
		err = b.golden.verify(probe, res)
	}
	b.rep.op(err)
	span = b.sp.start(nil, "mmu", "replay drive "+probe.key())
	rs, err := replay(cfg, stream)
	span.End()
	b.rep.check(err)

	if b.serve == nil {
		if b.serve, err = b.serveProbe(ctx, probe); err != nil {
			return err
		}
	}

	self, err := b.sp.finish(b.spanPath())
	b.rep.check(err)
	b.perLayer(ht, rs, observer, traceOv)
	for _, l := range layers {
		fmt.Fprintf(b.rep.stderr, "perfbench: self time %-13s %10.3f s\n", l, float64(self[l])/1e9)
	}
	fmt.Fprintf(b.rep.stderr, "perfbench: probe %s, replay of %d requests over %d cycles; spans in %s\n",
		probe.key(), rs.requests, rs.cycles, b.spanPath())
	return nil
}

// checkSections asserts that a simulation's disjoint hostprof sections
// (kernel heap and the three component ticks) sum to no more than the
// whole run. The obs section is timed inside the component ticks that
// emit events, so it overlaps them and is checked on its own.
func checkSections(smp simSample) error {
	h := smp.host
	parts := h[hostprof.SecKernelHeap.String()] + h[hostprof.SecTickDRAM.String()] +
		h[hostprof.SecTickMMU.String()] + h[hostprof.SecTickCore.String()]
	if run := h[hostprof.SecRun.String()]; parts > run || h[hostprof.SecObs.String()] > run {
		return fmt.Errorf("%s: hostprof sections %d ns (obs %d ns) exceed run %d ns", smp.spec.key(), parts, h[hostprof.SecObs.String()], run)
	}
	return nil
}

// probeSpec picks the configuration a workload measures overheads and
// the layer replay on: the sfrnn pair at +DWT for sweep-bw, the dlrm and
// ncf pair at +DWT otherwise.
func probeSpec(workload string, specs []spec) spec {
	a, b := "dlrm", "ncf"
	if workload == "sweep-bw" {
		a, b = "sfrnn", "sfrnn"
	}
	for _, s := range specs {
		if s.Sharing == sim.ShareDWT && (s.A == a && s.B == b || s.A == b && s.B == a) {
			return s
		}
	}
	return specs[0]
}

// overheads runs the probe configuration bare, with the serving
// daemon's observer set (registry, attribution, flight recorder and an
// event counter in place of the per-job progress observer), untraced as
// the timed phase runs it (registry only), and traced (registry, host
// profiler and event counter). It returns the observer set's overhead
// over bare and the traced run's over untraced.
func (b *bench) overheads(ctx context.Context, s spec) (observer, traced float64, err error) {
	legs := make([][]float64, 4)
	for rep := 0; rep < overheadReps; rep++ {
		for leg := range legs {
			cfg, err := s.config()
			if err != nil {
				return 0, 0, err
			}
			switch leg {
			case 1:
				cfg.Metrics = obs.NewRegistry()
				cfg.Obs = obs.Tee(sim.NewAttribution(cfg), recorder.New(cfg.Cores(), cfg.DRAM.Channels, 0), &countSink{})
			case 2:
				cfg.Metrics = obs.NewRegistry()
			case 3:
				cfg.Metrics, cfg.HostProf, cfg.Obs = obs.NewRegistry(), hostprof.New(), &countSink{}
			}
			span := b.sp.start(nil, "sim", fmt.Sprintf("overhead leg %d %s", leg, s.key()))
			t0 := time.Now()
			res, err := sim.RunContext(ctx, cfg)
			legs[leg] = append(legs[leg], time.Since(t0).Seconds())
			span.End()
			if err == nil {
				err = b.golden.verify(s, res)
			}
			b.rep.op(err)
		}
	}
	bare, observed, untraced, tr := median(legs[0]), median(legs[1]), median(legs[2]), median(legs[3])
	return observed/bare - 1, tr/untraced - 1, nil
}

// serveProbe gives the sweeps their serve.* figures: one daemon serves
// the probe configuration cold once, then as cache hits for a second.
func (b *bench) serveProbe(ctx context.Context, s spec) ([]metric, error) {
	d, err := startDaemon(ctx, b.workers)
	if err != nil {
		return nil, err
	}
	j := runJob(ctx, d.client, s, b.sp, nil)
	err = j.err
	if err == nil {
		err = b.golden.check(s, j.digest)
	}
	b.rep.op(err)
	hits := hitPhase(ctx, d.client, []job{j}, b.seed, b.workers, time.Second, b.sp, b.rep.op)
	snap, err := d.client.Registry(ctx)
	if stopErr := d.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return nil, err
	}
	return serveFigures(snap, []float64{j.submit.Seconds() * 1e3}, float64(j.polls), hits), nil
}

// counts are the exact per-layer counts of a timed phase, read from
// sim.Result: DRAM figures and walks from the mixes' full results, core
// figures from every core of every simulation.
type counts struct {
	cycles, cas, acts, busy, chanCycles, rejects, walks float64
	trans, hits, misses, mshr, stall, local             float64
}

func countResults(results []sim.Result, cores []sim.CoreResult) counts {
	var c counts
	for _, res := range results {
		c.cycles += float64(res.GlobalCycles)
		t := res.DRAM.Totals()
		c.cas += float64(t.Reads + t.Writes)
		c.acts += float64(t.Activates)
		c.busy += float64(t.BusBusyCycles)
		c.rejects += float64(t.QueueFullRejects)
		c.chanCycles += float64(res.GlobalCycles) * float64(len(res.DRAM.PerChannel))
		for _, cr := range res.Cores {
			c.walks += float64(cr.MMU.Walks)
		}
	}
	for _, cr := range cores {
		c.trans += float64(cr.MMU.Translations)
		c.hits += float64(cr.MMU.TLBHits)
		c.misses += float64(cr.MMU.TLBMisses)
		c.mshr += float64(cr.MMU.MSHRStalls)
		c.stall += float64(cr.NPU.LoadStallCycles)
		c.local += float64(cr.NPU.LocalCycles)
	}
	return c
}

// admitRetriesPerCAS is dram.admit_retries_per_cas: rejected Enqueue
// retries of the host loop per column access.
func (c counts) admitRetriesPerCAS() float64 { return ratio(c.rejects, c.cas) }

// walksPerCAS is mmu.walks_per_cas.
func (c counts) walksPerCAS() float64 { return ratio(c.walks, c.cas) }

// perLayer reports the per-layer metrics, layer by layer.
func (b *bench) perLayer(ht hostTotals, rs replayStats, observer, traceOv float64) {
	r := b.rep
	snap := b.reg.Snapshot()
	c := countResults(b.results, b.cores)
	perSim := func(ns int64) float64 { return ratio(float64(ns), float64(ht.sims)) }

	r.add("tile.build_ms", b.setup.tileMS, "ms", "(median set-up)")

	r.add("experiments.sim_s", b.expSimS, "s", "(median call)")
	r.add("experiments.pool_busy_frac", b.expPoolBusy, "ratio", "")

	r.add("sim.global_cycles", c.cycles, "cycles", "(sum over mixes)")
	r.add("sim.component_ticks", float64(snap.Value("sim.component_ticks")), "count", "")
	r.add("sim.heap_pops", float64(snap.Value("sim.heap_pops")), "count", "")
	r.add("sim.kernel_heap_ns", perSim(ht.heap), "ns", "(hostprof, per sim)")
	r.add("sim.run_ns", perSim(ht.run), "ns", "(hostprof, per sim)")
	r.add("sim.host_ns_per_tick", ratio(float64(ht.run), float64(ht.ticks)), "ns", "(hostprof)")

	r.add("npu.tick_ns", perSim(ht.core), "ns", "(hostprof, per sim)")
	r.add("npu.dma_issued", float64(sumPrefix(snap, "npu.dma_issued.")), "count", "")
	r.add("npu.load_stall_frac", ratio(c.stall, c.local), "ratio", "")

	r.add("mmu.tick_ns", perSim(ht.mmu), "ns", "(hostprof, per sim; includes admission)")
	r.add("mmu.translations", c.trans, "count", "")
	r.add("mmu.tlb_hit_rate", ratio(c.hits, c.hits+c.misses), "ratio", "")
	r.add("mmu.walks_per_cas", c.walksPerCAS(), "ratio", "")
	r.add("mmu.mshr_retries_per_translation", ratio(c.mshr, c.trans), "ratio", "(host retries)")
	r.add("mmu.submit_ns", float64(rs.submitNS), "ns", "(replay)")
	r.add("mmu.self_ns", float64(rs.mmuSelfNS), "ns", "(replay: MMU.Tick minus admission)")

	r.add("dram.tick_ns", perSim(ht.dram), "ns", "(hostprof, per sim)")
	r.add("dram.cas", c.cas, "count", "(sum over mixes)")
	r.add("dram.acts_per_cas", ratio(c.acts, c.cas), "ratio", "")
	r.add("dram.bus_util", ratio(c.busy, c.chanCycles), "ratio", "")
	r.add("dram.admit_retries_per_cas", c.admitRetriesPerCAS(), "ratio", "(host retries)")
	r.add("dram.admit_ns", float64(rs.admitNS), "ns", "(replay)")
	r.add("dram.admit_attempts", float64(rs.attempts), "count", "(replay)")
	r.add("dram.admit_accept_frac", ratio(float64(rs.accepted), float64(rs.attempts)), "ratio", "(replay)")
	r.add("dram.schedule_ns", float64(rs.scheduleNS), "ns", "(replay)")

	r.add("obs.events_per_sim", perSim(ht.evts), "count", "")
	r.add("obs.observer_overhead_frac", observer, "ratio", "(serve's observers vs bare)")
	r.add("obs.trace_overhead_frac", traceOv, "ratio", "(traced vs untraced)")

	r.metrics = append(r.metrics, b.serve...)
}

// sumPrefix sums every snapshot entry whose name starts with prefix.
func sumPrefix(s obs.Snapshot, prefix string) int64 {
	var n int64
	for _, m := range s {
		if strings.HasPrefix(m.Name, prefix) {
			n += m.Value
		}
	}
	return n
}
