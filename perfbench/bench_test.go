package main

import (
	"context"
	"math"
	"path/filepath"
	"testing"
	"time"

	"mnpusim/internal/sim"
)

// heldOutSeed is a seed the workload design was not tuned on.
const heldOutSeed = 7919

func TestQuantile(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7, 2, 8, 4, 6}
	if got := quantile(xs, 50); math.Abs(got-5) > 1e-9 {
		t.Errorf("median of 1..9 = %v, want 5", got)
	}
	if lo, hi := quantile(xs, 25), quantile(xs, 75); !(lo < 5 && hi > 5 && math.Abs(lo+hi-10) < 1e-9) {
		t.Errorf("quartiles of 1..9 = %v, %v; want symmetric about 5", lo, hi)
	}
	for _, tc := range []struct{ n, p, beyond int }{{50, 80, 10}, {27, 62, 10}, {38, 73, 10}, {11, 50, 5}} {
		if p := tailPercentile(tc.n, minTailBeyond); p != tc.p || beyond(tc.n, p) != tc.beyond {
			t.Errorf("n=%d: tail p%d with %d beyond, want p%d with %d", tc.n, p, beyond(tc.n, p), tc.p, tc.beyond)
		}
	}
}

func TestDrawsStayInPoolsAndTable(t *testing.T) {
	gold := mustGolden(t)
	for _, w := range workloadNames {
		for _, seed := range []int64{1, 2, heldOutSeed} {
			specs, err := drawSpecs(w, seed)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkPools(w, specs); err != nil {
				t.Error(err)
			}
			for _, s := range specs {
				if _, ok := gold[s.key()]; !ok {
					t.Errorf("%s seed %d draws %s, which has no golden digest", w, seed, s.key())
				}
			}
		}
	}
	if err := checkPools("sweep-walk", []spec{{A: "res", B: "dlrm", Sharing: sim.ShareDWT}}); err == nil {
		t.Error("checkPools accepted a mix outside the walk pool")
	}
}

// TestWorkloadDesign checks in exact counts that the two sweeps load
// the layers they are meant to: sweep-bw retries DRAM admission at least
// twice as often per column access as sweep-walk, and sweep-walk walks
// page tables at least three times as often per column access.
func TestWorkloadDesign(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates two passes of each sweep")
	}
	for _, seed := range []int64{1, heldOutSeed} {
		c := map[string]counts{}
		for _, w := range []string{"sweep-bw", "sweep-walk"} {
			specs, err := drawSpecs(w, seed)
			if err != nil {
				t.Fatal(err)
			}
			b := &bench{specs: specs, golden: mustGolden(t)}
			pr := runPass(context.Background(), specs, 2, nil, nil)
			for _, smp := range pr.samples {
				if smp.err != nil {
					t.Fatal(smp.err)
				}
				if err := b.golden.check(smp.spec, smp.digest); err != nil {
					t.Error(err)
				}
				b.collect(smp.spec, smp.res, smp.core)
			}
			c[w] = countResults(b.results, b.cores)
		}
		bw, walk := c["sweep-bw"], c["sweep-walk"]
		t.Logf("seed %d: admit retries/CAS bw %.1f walk %.1f; walks/CAS bw %.3f walk %.3f",
			seed, bw.admitRetriesPerCAS(), walk.admitRetriesPerCAS(), bw.walksPerCAS(), walk.walksPerCAS())
		if bw.admitRetriesPerCAS() < 2*walk.admitRetriesPerCAS() {
			t.Errorf("seed %d: sweep-bw admit retries per CAS %.1f < 2x sweep-walk's %.1f", seed, bw.admitRetriesPerCAS(), walk.admitRetriesPerCAS())
		}
		if walk.walksPerCAS() < 3*bw.walksPerCAS() {
			t.Errorf("seed %d: sweep-walk walks per CAS %.3f < 3x sweep-bw's %.3f", seed, walk.walksPerCAS(), bw.walksPerCAS())
		}
	}
}

func mustGolden(t *testing.T) golden {
	t.Helper()
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestReplayCompletesEveryRequestOnce(t *testing.T) {
	s := spec{A: "dlrm", B: "ncf", Sharing: sim.ShareDWT}
	cfg, err := s.config()
	if err != nil {
		t.Fatal(err)
	}
	_, stream, err := record(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := replay(cfg, stream)
	if err != nil {
		t.Fatal(err)
	}
	if rs.requests == 0 || rs.accepted != rs.requests+rs.walkReads || rs.attempts < rs.accepted {
		t.Errorf("replay stats %+v", rs)
	}
	// DRAM-backed walks send page-table reads through the same backend.
	cfg.DRAMBackedWalks = true
	if _, stream, err = record(cfg); err != nil {
		t.Fatal(err)
	}
	if rs, err = replay(cfg, stream); err != nil {
		t.Fatal(err)
	}
	if rs.walkReads == 0 {
		t.Error("DRAM-backed walks replayed without page-table reads")
	}
}

func TestTracedRerunMatchesGoldenAndSectionsFitRun(t *testing.T) {
	specs := []spec{{A: "ncf", B: "dlrm", Sharing: sim.Static}, {A: "dlrm"}}
	golden := mustGolden(t)
	samples, _ := rerun(context.Background(), nil, specs, 2, true)
	for _, smp := range samples {
		if smp.err != nil {
			t.Fatal(smp.err)
		}
		if err := golden.check(smp.spec, smp.digest); err != nil {
			t.Error(err)
		}
		if err := checkSections(smp); err != nil {
			t.Error(err)
		}
		if smp.ticks == 0 || smp.events == 0 {
			t.Errorf("%s: traced re-run read %d ticks, %d events", smp.spec.key(), smp.ticks, smp.events)
		}
	}
}

func TestServedResultMatchesGolden(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	d, err := startDaemon(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := spec{A: "ncf"}
	j := runJob(ctx, d.client, s, nil, nil)
	if j.err != nil {
		t.Fatal(j.err)
	}
	if err := mustGolden(t).check(s, j.digest); err != nil {
		t.Error(err)
	}
	var errs int
	hits := hitPhase(ctx, d.client, []job{j}, 1, 1, 100*time.Millisecond, nil, func(err error) {
		if err != nil {
			errs++
		}
	})
	if errs > 0 || len(hits.lats) == 0 || hits.cached != len(hits.lats) {
		t.Errorf("hit phase: %d errors, %d hits, %d cached", errs, len(hits.lats), hits.cached)
	}
	if err := d.stop(); err != nil {
		t.Error(err)
	}
}

func TestSpanFileValidatesAndSelfTimeExcludesChildren(t *testing.T) {
	sp := newSpans("test")
	parent := sp.start(nil, "experiments", "ForEach")
	child := sp.start(parent, "sim", "RunContext")
	time.Sleep(20 * time.Millisecond)
	child.End()
	parent.End()
	self, err := sp.finish(filepath.Join(t.TempDir(), "spans.json"))
	if err != nil {
		t.Fatal(err)
	}
	if self["sim"] < int64(20*time.Millisecond) || self["experiments"] >= self["sim"] {
		t.Errorf("self times %v: the child's time must not count for its parent", self)
	}
	if got := covered([][2]int64{{0, 10}, {5, 20}, {30, 40}}, 0, 35); got != 25 {
		t.Errorf("covered = %d, want 25", got)
	}
}
