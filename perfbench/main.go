// Command perfbench is the repository's benchmark. It drives the
// simulator through three workloads (sweep-bw, sweep-walk, serve-jobs)
// and measures everything from outside the program: it times its own
// calls into each layer and reads counts from sim.Result and from
// metrics registries. With -trace 1 it adds a traced run that reports
// per-layer metrics, including a layer replay that separates MMU time
// from DRAM-admission time. See README.md.
//
// Usage:
//
//	perfbench -workload sweep-bw -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it are the
// same metrics for people. The exit code is non-zero when any operation
// failed or any result digest differed from digests.json.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// deadline bounds one run; a run that reaches it exits non-zero.
const deadline = 170 * time.Second

func main() {
	begin := time.Now()
	time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %s\n", deadline)
		os.Exit(3)
	})
	os.Exit(run(begin, os.Args[1:], os.Stdout, os.Stderr))
}

func run(begin time.Time, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: sweep-bw, sweep-walk or serve-jobs")
	seed := fs.Int64("seed", 1, "seed the workload's simulations are drawn from")
	secs := fs.Int("seconds", 10, "minimum length of the timed phase, in seconds")
	trace := fs.Int("trace", 0, "1 adds the traced run and reports per-layer metrics instead of end-to-end ones")
	out := fs.String("out", ".bench_build/perfbench", "directory the span file is written to")
	writeDig := fs.String("write-digests", "", "simulate every drawable configuration, write the digest table to this file, and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	workers := min(2, runtime.NumCPU())
	if *writeDig != "" {
		if err := writeDigests(*writeDig, workers); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 || *secs < 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1 and -seconds at least 1")
		return 2
	}
	gold, err := loadGolden()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b := &bench{
		workload: *workload,
		seed:     *seed,
		dur:      time.Duration(*secs) * time.Second,
		traced:   *trace == 1,
		workers:  workers,
		golden:   gold,
		begin:    begin,
		out:      *out,
		rep:      &report{stderr: stderr},
	}
	if b.traced {
		b.sp = newSpans(b.workload)
	}
	if err := b.run(context.Background()); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%d trace=%d workers=%d\n", b.workload, b.seed, *secs, *trace, workers)
	b.rep.print(stdout)
	if b.rep.failed > 0 {
		return 1
	}
	return 0
}

// metric is one reported figure.
type metric struct {
	name, unit, note string
	value            float64
}

// report collects the run's operations, failures and metrics.
type report struct {
	attempted, failed int
	metrics           []metric
	stderr            io.Writer
}

func (r *report) add(name string, v float64, unit, note string) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, note: note, value: v})
}

// op counts one attempted operation and, if err is set, its failure.
func (r *report) op(err error) {
	r.attempted++
	r.check(err)
}

// check counts err as a failure without counting an operation; self
// checks of the measurement use it.
func (r *report) check(err error) {
	if err != nil {
		r.failed++
		fmt.Fprintln(r.stderr, "perfbench: FAIL:", err)
	}
}

func (r *report) print(w io.Writer) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(r.metrics))
	for _, m := range r.metrics {
		fmt.Fprintf(w, "  %-36s %14.6g %-7s %s\n", m.name, m.value, m.unit, m.note)
		ms[m.name] = value{m.value, m.unit}
	}
	fmt.Fprintf(w, "  %-36s %14.6g %-7s (%d failed of %d attempted)\n", "error_rate",
		ratio(float64(r.failed), float64(r.attempted)), "ratio", r.failed, r.attempted)
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, ms})
	fmt.Fprintln(w, string(line))
}
