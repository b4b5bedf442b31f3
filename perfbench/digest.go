package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"mnpusim/internal/dram"
	"mnpusim/internal/sim"
)

// digests.json maps every simulation any seed can draw to the digest of
// its result. Regenerate it with -write-digests only when a change to
// the simulator is meant to change results.
//
//go:embed digests.json
var goldenJSON []byte

// golden maps a simulation's key to its expected digest.
type golden map[string]string

func loadGolden() (golden, error) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return g, nil
}

// digest hashes the canonical JSON of r with the host-retry counters
// (QueueFullRejects, MSHRStalls, PortStalls) zeroed: they count retries
// of the host loop, not simulated events, and may be redefined without
// changing what the simulation computes. Every other field must stay
// byte-identical. For an Ideal baseline only core 0's result counts,
// because that is all experiments.Runner.Ideal returns.
func digest(s spec, r sim.Result) (string, error) {
	if s.ideal() {
		if len(r.Cores) != 1 {
			return "", fmt.Errorf("%s: ideal result has %d cores", s.key(), len(r.Cores))
		}
		return digestCore(r.Cores[0])
	}
	c := r
	c.Cores = make([]sim.CoreResult, len(r.Cores))
	for i, cr := range r.Cores {
		c.Cores[i] = zeroCoreRetries(cr)
	}
	c.DRAM.PerChannel = make([]dram.ChannelStats, len(r.DRAM.PerChannel))
	for i, ch := range r.DRAM.PerChannel {
		ch.QueueFullRejects = 0
		c.DRAM.PerChannel[i] = ch
	}
	return hashJSON(c)
}

// digestCore is digest for the one-core view of an Ideal baseline.
func digestCore(cr sim.CoreResult) (string, error) {
	return hashJSON(zeroCoreRetries(cr))
}

func zeroCoreRetries(cr sim.CoreResult) sim.CoreResult {
	cr.MMU.MSHRStalls = 0
	cr.MMU.PortStalls = 0
	return cr
}

func hashJSON(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// verify digests r and compares the digest with the golden one.
func (g golden) verify(s spec, r sim.Result) error {
	d, err := digest(s, r)
	if err != nil {
		return err
	}
	return g.check(s, d)
}

// check compares a simulation's digest with the golden one.
func (g golden) check(s spec, got string) error {
	want, ok := g[s.key()]
	if !ok {
		return fmt.Errorf("%s: no golden digest", s.key())
	}
	if got != want {
		return fmt.Errorf("%s: digest %s, want %s", s.key(), got[:12], want[:12])
	}
	return nil
}

// writeDigests simulates every drawable configuration and writes the
// golden table to path.
func writeDigests(path string, workers int) error {
	var all []spec
	for _, w := range []sweep{sweepBW, sweepWalk} {
		all = append(all, w.universe()...)
	}
	out := make(map[string]string, len(all))
	samples, _ := rerun(context.Background(), nil, all, workers, false)
	for i, smp := range samples {
		if smp.err != nil {
			return smp.err
		}
		out[all[i].key()] = smp.digest
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("wrote %d digests to %s\n", len(out), path)
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
