package main

import (
	"fmt"
	"math/rand"

	"mnpusim/internal/serve/api"
	"mnpusim/internal/sim"
	"mnpusim/internal/workloads"
)

// The two net pools. Bandwidth-bound nets spend their host time in DRAM
// admission; translation-bound nets spend it in the MMU and the kernel.
var (
	bwPool   = []string{"res", "yt", "sfrnn", "ds2", "gpt2"}
	walkPool = []string{"dlrm", "ncf", "alex"}
)

// spec is one simulation: a dual-core mix at a sharing level, or the
// Ideal baseline of one net (B empty).
type spec struct {
	A, B    string
	Sharing sim.Sharing
}

func (s spec) ideal() bool { return s.B == "" }

// key names the simulation in the digest table and in spans.
func (s spec) key() string {
	if s.ideal() {
		return "ideal:" + s.A
	}
	return s.A + "+" + s.B + "@" + s.Sharing.String()
}

// config builds the simulation exactly as experiments.Runner and the
// serving daemon do for the same mix.
func (s spec) config() (sim.Config, error) {
	if s.ideal() {
		cfg, err := sim.NewWorkloadConfig(workloads.ScaleTiny, sim.Static, s.A, s.A)
		if err != nil {
			return sim.Config{}, err
		}
		return sim.IdealFor(cfg, 0), nil
	}
	return sim.NewWorkloadConfig(workloads.ScaleTiny, s.Sharing, s.A, s.B)
}

// sharingNames are the wire spellings of the co-run sharing levels.
var sharingNames = map[sim.Sharing]string{
	sim.Static: "static", sim.ShareD: "+d", sim.ShareDW: "+dw", sim.ShareDWT: "+dwt",
}

// jobSpec is the same simulation as a serving-daemon job.
func (s spec) jobSpec() api.JobSpec {
	if s.ideal() {
		return api.JobSpec{Workloads: []string{s.A}, Scale: "tiny", Ideal: true}
	}
	return api.JobSpec{Workloads: []string{s.A, s.B}, Scale: "tiny", Sharing: sharingNames[s.Sharing]}
}

// sweep is a sweep workload: a fixed set of unordered net pairs from one
// pool, each run at the given sharing levels, plus the Ideal baseline of
// every pool net. The seed draws which net of each mix runs on core 0.
// The pair set is fixed so that every seed asks for the same amount of
// simulation, which keeps sims_per_s comparable across seeds.
type sweep struct {
	pool   []string
	pairs  [][2]string
	levels []sim.Sharing
}

var (
	sweepBW = sweep{
		pool:   bwPool,
		pairs:  [][2]string{{"res", "ds2"}, {"yt", "gpt2"}, {"sfrnn", "sfrnn"}},
		levels: []sim.Sharing{sim.Static, sim.ShareDWT},
	}
	sweepWalk = sweep{
		pool:   walkPool,
		pairs:  [][2]string{{"dlrm", "ncf"}, {"dlrm", "alex"}, {"ncf", "alex"}, {"dlrm", "dlrm"}, {"ncf", "ncf"}, {"alex", "alex"}},
		levels: sim.Levels(),
	}
)

// pass draws one pass of the sweep. Mixes come first, in the fixed pair
// and level order (longest first, so the two-worker pool packs them the
// same way on every seed), then the Ideal baselines.
func (w sweep) pass(rng *rand.Rand) []spec {
	var out []spec
	for _, p := range w.pairs {
		for _, l := range w.levels {
			a, b := p[0], p[1]
			if rng.Intn(2) == 1 {
				a, b = b, a
			}
			out = append(out, spec{A: a, B: b, Sharing: l})
		}
	}
	for _, n := range w.pool {
		out = append(out, spec{A: n})
	}
	return out
}

// universe lists every simulation any seed can draw: both core orders
// of every pair at every level, plus the Ideal baselines.
func (w sweep) universe() []spec {
	var out []spec
	for _, p := range w.pairs {
		for _, l := range w.levels {
			out = append(out, spec{A: p[0], B: p[1], Sharing: l})
			if p[0] != p[1] {
				out = append(out, spec{A: p[1], B: p[0], Sharing: l})
			}
		}
	}
	for _, n := range w.pool {
		out = append(out, spec{A: n})
	}
	return out
}

// inPool reports whether every net of s belongs to pool.
func inPool(s spec, pool []string) bool {
	has := func(n string) bool {
		for _, p := range pool {
			if p == n {
				return true
			}
		}
		return false
	}
	return has(s.A) && (s.ideal() || has(s.B))
}

// workloadNames are the benchmark's workloads in BENCHMARK.json order.
var workloadNames = []string{"sweep-bw", "sweep-walk", "serve-jobs"}

// drawSpecs returns the seed's simulations for a workload. serve-jobs
// serves the sweep-bw pass drawn from the same seed and every sweep-walk
// simulation in both core orders: 50 distinct cold jobs, enough that the
// middle of their latency distribution is dense.
func drawSpecs(workload string, seed int64) ([]spec, error) {
	rng := rand.New(rand.NewSource(seed))
	switch workload {
	case "sweep-bw":
		return sweepBW.pass(rng), nil
	case "sweep-walk":
		return sweepWalk.pass(rng), nil
	case "serve-jobs":
		return interleave(sweepBW.pass(rng), sweepWalk.universe()), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
}

// interleave spreads the few long jobs evenly through the many short
// ones, keeping each list's order, so that the short jobs' latencies are
// sampled across the whole cold phase rather than in one stretch of it.
func interleave(long, short []spec) []spec {
	per := len(short) / len(long)
	var out []spec
	for i, s := range long {
		out = append(out, s)
		out = append(out, short[i*per:(i+1)*per]...)
	}
	return append(out, short[len(long)*per:]...)
}

// checkPools verifies that every drawn simulation belongs to its
// workload's net pool.
func checkPools(workload string, specs []spec) error {
	for _, s := range specs {
		ok := inPool(s, bwPool) || inPool(s, walkPool)
		switch workload {
		case "sweep-bw":
			ok = inPool(s, bwPool)
		case "sweep-walk":
			ok = inPool(s, walkPool)
		}
		if !ok {
			return fmt.Errorf("%s drew %s outside its net pool", workload, s.key())
		}
	}
	return nil
}
