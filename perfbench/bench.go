package main

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"mnpusim/internal/obs"
	"mnpusim/internal/obs/dtrace"
	"mnpusim/internal/sim"
	"mnpusim/internal/tile"
)

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 25

// minTailBeyond is how many cold samples must lie beyond the tail
// percentile.
const minTailBeyond = 10

type bench struct {
	workload string
	seed     int64
	dur      time.Duration
	traced   bool
	workers  int
	golden   golden
	begin    time.Time
	out      string
	rep      *report
	sp       *spans

	specs []spec
	setup setupResult
	// From the timed phase: the results counts are read from, the
	// registry the runs fed, and per-simulation wall times.
	results  []sim.Result     // mixes only: full results
	cores    []sim.CoreResult // every core of every simulation
	reg      *obs.Registry
	lats     []float64 // per-simulation (sweeps) or per-job (serve) seconds
	simsPerS float64
	simsNote string
	// expSimS and expPoolBusy are the experiments.* figures; serve is
	// the serve.* figures.
	expSimS, expPoolBusy float64
	serve                []metric
}

func (b *bench) run(ctx context.Context) error {
	specs, err := drawSpecs(b.workload, b.seed)
	if err != nil {
		return err
	}
	if err := checkPools(b.workload, specs); err != nil {
		return err
	}
	b.specs = specs
	fmt.Fprintf(b.rep.stderr, "perfbench: %s seed %d draws %s\n", b.workload, b.seed, specNames(specs))

	var d *daemon
	if b.setup, d, err = b.setUp(ctx); err != nil {
		return err
	}
	if b.workload == "serve-jobs" {
		err = b.serveTimed(ctx, d)
		if stopErr := d.stop(); err == nil {
			err = stopErr
		}
	} else {
		b.sweepTimed(ctx)
	}
	if err != nil {
		return err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	if !b.traced {
		b.endToEnd(rss)
		return nil
	}
	return b.tracedRun(ctx)
}

// setupResult is the median set-up.
type setupResult struct {
	seconds, tileMS float64
}

// setUp constructs every configuration and tile schedule of the run
// (and, on serve-jobs, starts the daemon and waits for /v1/healthz)
// setupReps times. The first set-up is the real one: it starts at
// process start with tile.BuildCached's process-wide cache cold, and
// its daemon serves the run. The others repeat the same work with
// uncached tile.Build and a daemon that is stopped again.
func (b *bench) setUp(ctx context.Context) (setupResult, *daemon, error) {
	var total, tiles []float64
	var kept *daemon
	fail := func(err error) (setupResult, *daemon, error) {
		if kept != nil {
			_ = kept.stop() // err is the one to report
		}
		return setupResult{}, nil, err
	}
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		if rep == 0 {
			t0 = b.begin
		}
		span := b.sp.start(nil, "bench", "setup")
		tileNS, err := b.buildSchedules(rep == 0, span)
		if err != nil {
			return fail(err)
		}
		if b.workload == "serve-jobs" {
			d, err := startDaemon(ctx, b.workers)
			if err != nil {
				return fail(err)
			}
			if rep == 0 {
				kept = d
			} else if err := d.stop(); err != nil {
				return fail(err)
			}
		}
		total = append(total, time.Since(t0).Seconds())
		tiles = append(tiles, float64(tileNS)/1e6)
		span.End()
	}
	return setupResult{seconds: median(total), tileMS: median(tiles)}, kept, nil
}

// buildSchedules builds every configuration and each distinct net's
// tile schedule, the way sim.RunContext does, and returns the time spent
// in tile.
func (b *bench) buildSchedules(cached bool, parent *dtrace.Active) (int64, error) {
	var tileNS int64
	seen := map[string]bool{}
	for _, s := range b.specs {
		cfg, err := s.config()
		if err != nil {
			return 0, err
		}
		for i, net := range cfg.Nets {
			if seen[net.Name] {
				continue
			}
			seen[net.Name] = true
			a := cfg.Arch[i]
			p := tile.Params{Array: a.Array, Dataflow: a.Dataflow, SPMBytes: a.SPMBytes, DTypeBytes: a.DTypeBytes, BlockBytes: a.BlockBytes}
			span := b.sp.start(parent, "tile", "Build "+net.Name)
			t0 := time.Now()
			if cached {
				_, err = tile.BuildCached(net, p)
			} else {
				_, err = tile.Build(net, p)
			}
			tileNS += int64(time.Since(t0))
			span.End()
			if err != nil {
				return 0, err
			}
		}
	}
	return tileNS, nil
}

// sweepTimed runs whole passes of the sweep through experiments.Runner
// until the timed phase has lasted at least b.dur.
func (b *bench) sweepTimed(ctx context.Context) {
	phase := b.sp.start(nil, "bench", "timed phase")
	defer phase.End()
	var (
		sims, passes int
		wall, busy   time.Duration
		perSpec      = make([][]float64, len(b.specs))
	)
	for ; passes == 0 || wall < b.dur; passes++ {
		pr := runPass(ctx, b.specs, b.workers, b.sp, phase)
		wall += pr.wall
		for i, smp := range pr.samples {
			err := smp.err
			if err == nil {
				err = b.golden.check(smp.spec, smp.digest)
			}
			b.rep.op(err)
			sims++
			busy += smp.lat
			perSpec[i] = append(perSpec[i], smp.lat.Seconds())
			if passes == 0 && smp.err == nil {
				b.collect(smp.spec, smp.res, smp.core)
			}
		}
		if passes == 0 {
			b.reg = pr.reg
		}
	}
	for _, xs := range perSpec {
		b.lats = append(b.lats, median(xs))
	}
	b.simsPerS = float64(sims) / wall.Seconds()
	b.simsNote = fmt.Sprintf("(%d simulations in %d passes, %.2f s)", sims, passes, wall.Seconds())
	b.expSimS = median(b.lats)
	b.expPoolBusy = busy.Seconds() / (float64(b.workers) * wall.Seconds())
}

// collect keeps a timed-phase result for the count metrics: every
// core's result, and the full result of each mix. An Ideal baseline
// contributes core 0 only, which is all experiments.Runner returns.
func (b *bench) collect(s spec, res *sim.Result, core sim.CoreResult) {
	switch {
	case res == nil:
		b.cores = append(b.cores, core)
	case s.ideal():
		b.cores = append(b.cores, res.Cores[0])
	default:
		b.results = append(b.results, *res)
		b.cores = append(b.cores, res.Cores...)
	}
}

// serveTimed runs the cold phase (every spec once, with the poll
// interval checked against the cold median) and then the hit phase.
func (b *bench) serveTimed(ctx context.Context, d *daemon) error {
	cold, wall := coldPhase(ctx, d.client, b.specs, b.workers, b.sp)
	var (
		polls   int
		submits []float64
	)
	for _, j := range cold {
		err := j.err
		if err == nil {
			err = b.golden.check(j.spec, j.digest)
		}
		b.rep.op(err)
		b.lats = append(b.lats, j.lat.Seconds())
		submits = append(submits, j.submit.Seconds()*1e3)
		polls += j.polls
		if j.err == nil {
			b.collect(j.spec, j.res, sim.CoreResult{})
		}
	}
	b.simsPerS = float64(len(cold)) / wall.Seconds()
	b.simsNote = fmt.Sprintf("(%d cold jobs in %.2f s)", len(cold), wall.Seconds())
	b.reg = d.reg

	hits := hitPhase(ctx, d.client, cold, b.seed, b.workers, max(b.dur/5, time.Second), b.sp, b.rep.op)
	snap, err := d.client.Registry(ctx)
	if err != nil {
		return err
	}
	b.serve = serveFigures(snap, submits, float64(polls)/float64(len(cold)), hits)
	return nil
}

// endToEnd reports the end-to-end metrics of the untraced run.
func (b *bench) endToEnd(rssMB float64) {
	r := b.rep
	r.add("sims_per_s", b.simsPerS, "1/s", b.simsNote)
	n := len(b.lats)
	r.add("cold_job_p50_s", quantile(b.lats, 50), "s", fmt.Sprintf("(p50 of n=%d, %d beyond)", n, beyond(n, 50)))
	tp := tailPercentile(n, minTailBeyond)
	note := fmt.Sprintf("(p%d of n=%d, %d beyond)", tp, n, beyond(n, tp))
	if beyond(n, tp) < minTailBeyond {
		note = fmt.Sprintf("(p%d of n=%d: too few samples for %d beyond)", tp, n, minTailBeyond)
	}
	r.add("cold_job_tail_s", quantile(b.lats, tp), "s", note)
	r.add("setup_s", b.setup.seconds, "s", fmt.Sprintf("(median of %d set-ups)", setupReps))
	r.add("peak_rss_mb", rssMB, "MB", "(VmHWM)")
}

// specNames lists the run's simulations for the log.
func specNames(specs []spec) string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.key()
	}
	return strings.Join(names, " ")
}

// spanPath is where a traced run writes its span file.
func (b *bench) spanPath() string {
	return filepath.Join(b.out, fmt.Sprintf("spans-%s-seed%d.json", b.workload, b.seed))
}
