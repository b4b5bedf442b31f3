package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"mnpusim/internal/obs"
	"mnpusim/internal/obs/dtrace"
	"mnpusim/internal/serve"
	"mnpusim/internal/serve/api"
	"mnpusim/internal/serve/client"
	"mnpusim/internal/sim"
)

// pollEvery paces a job's status polls at 1% of its elapsed time,
// between 100 µs and 2 ms. So the wait a poll adds stays under 1% of the
// latency of any job longer than 10 ms, the median job's included.
func pollEvery(elapsed time.Duration) time.Duration {
	return min(max(elapsed/100, 100*time.Microsecond), 2*time.Millisecond)
}

// daemon is one in-process mnpuserved: serve.New behind a loopback
// listener, with an in-memory result cache.
type daemon struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error
	reg    *obs.Registry
	client *client.Client
}

func startDaemon(ctx context.Context, workers int) (*daemon, error) {
	reg := obs.NewRegistry()
	srv, err := serve.New(serve.Config{Workers: workers, Registry: reg})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(ctx) // the listen error is the one to report
		return nil, err
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv.Handler()}, served: make(chan error, 1), reg: reg,
		client: client.New("http://" + ln.Addr().String())}
	go func() { d.served <- d.hs.Serve(ln) }()
	for {
		if _, err := d.client.Healthz(ctx); err == nil {
			break
		} else if ctx.Err() != nil {
			_ = d.stop() // the health-check error is the one to report
			return nil, err
		}
		time.Sleep(time.Millisecond)
	}
	return d, nil
}

// stop drains the daemon and closes its listener, waiting for both.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	drainErr := d.srv.Shutdown(ctx)
	if err := d.hs.Shutdown(ctx); err != nil {
		return err
	}
	if err := <-d.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return drainErr
}

// job is one cold submission as a client saw it.
type job struct {
	spec   spec
	lat    time.Duration // submit to result
	submit time.Duration // the POST alone
	polls  int
	body   []byte
	res    *sim.Result
	digest string
	err    error
}

// runJob submits s and polls until the job ends. Anything but a done
// job with a result is an error.
func runJob(ctx context.Context, c *client.Client, s spec, sp *spans, parent *dtrace.Active) job {
	j := job{spec: s}
	span := sp.start(parent, "serve/client", "job "+s.key())
	defer span.End()
	t0 := time.Now()
	v, err := c.SubmitJob(ctx, s.jobSpec())
	j.submit = time.Since(t0)
	for err == nil && !v.Status.Terminal() {
		time.Sleep(pollEvery(time.Since(t0)))
		j.polls++
		v, err = c.Job(ctx, v.ID)
	}
	j.lat = time.Since(t0)
	switch {
	case err != nil:
		j.err = fmt.Errorf("%s: %w", s.key(), err)
	case v.Status != api.StatusDone:
		j.err = fmt.Errorf("%s: job ended %s: %s", s.key(), v.Status, v.Error)
	case len(v.Result) == 0:
		j.err = fmt.Errorf("%s: done job without a result", s.key())
	default:
		var r sim.Result
		if j.err = json.Unmarshal(v.Result, &r); j.err == nil {
			j.body, j.res = v.Result, &r
			j.digest, j.err = digest(s, r)
		}
	}
	return j
}

// coldPhase runs every spec once through a closed loop of clients
// clients, in the given order.
func coldPhase(ctx context.Context, c *client.Client, specs []spec, clients int, sp *spans) ([]job, time.Duration) {
	out := make([]job, len(specs))
	parent := sp.start(nil, "bench", "cold phase")
	next := make(chan int)
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = runJob(ctx, c, specs[i], sp, parent)
			}
		}()
	}
	for i := range specs {
		next <- i
	}
	close(next)
	wg.Wait()
	wall := time.Since(t0)
	parent.End()
	return out, wall
}

// hitStats summarizes the hit phase.
type hitStats struct {
	lats   []time.Duration
	cached int
	wall   time.Duration
}

// hitPhase resubmits the cold jobs' specs in seeded order for dur and
// fetches each result, which must be the cold job's bytes. record sees
// every resubmission's outcome; calls to it are serialized.
func hitPhase(ctx context.Context, c *client.Client, cold []job, seed int64, clients int, dur time.Duration, sp *spans, record func(error)) hitStats {
	order := rand.New(rand.NewSource(seed)).Perm(len(cold))
	span := sp.start(nil, "serve/client", "hit phase")
	defer span.End()
	var (
		mu  sync.Mutex
		st  hitStats
		wg  sync.WaitGroup
		pos int
	)
	t0 := time.Now()
	deadline := t0.Add(dur)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				mu.Lock()
				j := cold[order[pos%len(order)]]
				pos++
				mu.Unlock()
				lat, cached, err := hitOnce(ctx, c, j)
				mu.Lock()
				record(err)
				if err == nil {
					st.lats = append(st.lats, lat)
					if cached {
						st.cached++
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	st.wall = time.Since(t0)
	return st
}

func hitOnce(ctx context.Context, c *client.Client, j job) (time.Duration, bool, error) {
	if j.err != nil {
		return 0, false, fmt.Errorf("%s: no cold result to resubmit", j.spec.key())
	}
	t0 := time.Now()
	v, err := c.SubmitJob(ctx, j.spec.jobSpec())
	if err == nil {
		v, err = c.Job(ctx, v.ID)
	}
	lat := time.Since(t0)
	switch {
	case err != nil:
		return 0, false, fmt.Errorf("%s: %w", j.spec.key(), err)
	case v.Status != api.StatusDone:
		return 0, false, fmt.Errorf("%s: resubmission ended %s", j.spec.key(), v.Status)
	case !bytes.Equal(v.Result, j.body):
		return 0, false, fmt.Errorf("%s: resubmission result differs from the cold result", j.spec.key())
	}
	return lat, v.Cached, nil
}

// serveFigures computes the serve.* per-layer metrics: queue wait from
// the daemon's registry histogram (read through client.Registry), the
// cold submit round trip and polls per job, and the hit phase.
func serveFigures(reg map[string]int64, submitMS []float64, pollsPerJob float64, hits hitStats) []metric {
	lats := make([]float64, len(hits.lats))
	for i, d := range hits.lats {
		lats[i] = d.Seconds() * 1e3
	}
	return []metric{
		{name: "serve.queue_wait_ms", unit: "ms", value: ratio(float64(reg["serve.queue_wait_ns.sum"]), float64(reg["serve.queue_wait_ns.count"])) / 1e6},
		{name: "serve.submit_ms", unit: "ms", value: median(submitMS)},
		{name: "serve.polls_per_job", unit: "count", value: pollsPerJob},
		{name: "serve.cache_hit_rate", unit: "ratio", value: ratio(float64(hits.cached), float64(len(hits.lats)))},
		{name: "serve.hit_p50_ms", unit: "ms", value: median(lats)},
		{name: "serve.hits_per_s", unit: "1/s", value: float64(len(hits.lats)) / hits.wall.Seconds()},
	}
}
