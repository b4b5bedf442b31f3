package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"mnpusim/internal/obs"
	"mnpusim/internal/serve/api"
)

// sseRetryMS is the reconnect backoff hint sent at the head of every
// event stream.
const sseRetryMS = 1000

// jobProgress accumulates a running job's live counters. The simulation
// goroutine writes it through the job's probe sink; SSE streams read it
// concurrently, so every field is atomic.
type jobProgress struct {
	cycle         atomic.Int64 // latest observed global cycle
	iters         atomic.Int64 // completed inferences across cores
	skips         atomic.Int64 // event-driven fast-forward windows taken
	skippedCycles atomic.Int64 // global cycles covered by those windows
}

// Emit implements obs.Sink.
func (p *jobProgress) Emit(e obs.Event) {
	p.cycle.Store(e.Cycle.Int64())
	switch e.Kind {
	case obs.KindSkipWindow:
		p.skips.Add(1)
		p.skippedCycles.Add(e.A)
	case obs.KindIterDone:
		p.iters.Add(1)
	}
}

func (p *jobProgress) view(st Status) api.JobProgress {
	return api.JobProgress{
		Status:        st,
		Cycle:         p.cycle.Load(),
		Iterations:    p.iters.Load(),
		SkipWindows:   p.skips.Load(),
		SkippedCycles: p.skippedCycles.Load(),
	}
}

// snapshotJSON renders a registry snapshot as one flat JSON object.
// The snapshot is already name-sorted, so the encoding is deterministic.
func snapshotJSON(snap obs.Snapshot) []byte {
	b := []byte{'{'}
	for i, m := range snap {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(b, m.Name)
		b = append(b, ':')
		b = strconv.AppendInt(b, m.Value, 10)
	}
	return append(b, '}')
}

// sseStream is one open Server-Sent Events response of the job or
// sweep events endpoint. Payloads are single-line JSON (json.Marshal
// emits no newlines), so one data: line carries the exact bytes. Event
// ids come from the resource's own counter, not the stream's, so a
// client that reconnects sees ids keep climbing (its Last-Event-ID is
// never reissued) and can tell replayed state from stale duplicates.
type sseStream struct {
	w   http.ResponseWriter
	fl  http.Flusher
	seq *atomic.Int64
}

// startSSE writes the event-stream headers and the retry: reconnect
// hint — EventSource clients back off this long before redialing,
// instead of their (often aggressive) default. ok is false when the
// stream could not be opened; any error response is already written.
func startSSE(w http.ResponseWriter, seq *atomic.Int64) (st *sseStream, ok bool) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, errf(http.StatusInternalServerError, "streaming unsupported"))
		return nil, false
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	if _, err := fmt.Fprintf(w, "retry: %d\n\n", sseRetryMS); err != nil {
		return nil, false
	}
	fl.Flush()
	return &sseStream{w: w, fl: fl, seq: seq}, true
}

// send writes one event; false means the client has gone away.
func (st *sseStream) send(name string, payload []byte) bool {
	if _, err := fmt.Fprintf(st.w, "id: %d\nevent: %s\ndata: %s\n\n",
		st.seq.Add(1), name, payload); err != nil {
		return false
	}
	st.fl.Flush()
	return true
}

func (st *sseStream) sendJSON(name string, v any) bool {
	b, err := json.Marshal(v)
	if err != nil {
		return false
	}
	return st.send(name, b)
}

// terminal sends the stream's one terminal event: "result" carrying the
// result bytes verbatim, or "failed"/"cancelled" carrying the error.
func (st *sseStream) terminal(status Status, result []byte, errMsg string) {
	switch status {
	case StatusDone:
		st.send("result", result)
	case StatusFailed:
		st.sendJSON("failed", map[string]string{"error": errMsg})
	case StatusCancelled:
		st.sendJSON("cancelled", map[string]string{"error": errMsg})
	}
}

// handleEvents is GET /v1/jobs/{id}/events: a Server-Sent Events stream
// of the job's life. While the job runs it carries periodic "progress"
// events (skip-window and inference counters) and occasional "snapshot"
// events (the registry as a JSON object); once the job ends it carries
// an "attribution" event when a stall-cycle report exists, then exactly
// one terminal event — "result" (data bytes identical to
// GET /v1/jobs/{id}/result), "failed", or "cancelled" — and closes.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, errf(http.StatusNotFound, "no such job %q", r.PathValue("id")))
		return
	}
	st, ok := startSSE(w, &job.eventSeq)
	if !ok {
		return
	}
	if !st.sendJSON("progress", job.progress.view(job.Status())) {
		return
	}
	ticker := time.NewTicker(s.cfg.EventInterval)
	defer ticker.Stop()
	ticks := 0
	for {
		select {
		case <-r.Context().Done():
			return
		case <-job.Done():
			status := job.Status()
			if !st.sendJSON("progress", job.progress.view(status)) {
				return
			}
			if ab, ok := job.AttributionJSON(); ok && !st.send("attribution", ab) {
				return
			}
			result, _ := job.ResultJSON()
			st.terminal(status, result, job.View(false).Error)
			return
		case <-ticker.C:
			if !st.sendJSON("progress", job.progress.view(job.Status())) {
				return
			}
			if ticks++; ticks%s.cfg.snapshotEvery == 0 {
				if !st.send("snapshot", snapshotJSON(s.reg.Snapshot())) {
					return
				}
			}
		}
	}
}
