package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"pcstall/internal/orchestrate"
)

// progressEvent is one SSE "progress" frame: the job's state plus the
// orchestrator's live campaign statistics, so a streaming client sees
// the same numbers the CLI's -progress line prints.
type progressEvent struct {
	Version string            `json:"version"`
	ID      string            `json:"id"`
	Kind    string            `json:"kind"`
	Status  string            `json:"status"`
	Stats   orchestrate.Stats `json:"stats"`
	// TraceID is the job's distributed trace ID (empty on an untraced
	// server): the key into /debug/traces on every process the job
	// touched.
	TraceID string `json:"trace_id,omitempty"`
}

// handleJobEvents streams a job's progress as Server-Sent Events:
// "progress" frames every ProgressEvery while the job is queued or
// running, then one final "done" frame carrying the settled response
// body, then the stream closes. Attaching to a settled job yields the
// "done" frame immediately. A streaming client counts as an interested
// waiter: if every client (sync POSTs included) disconnects from a
// non-detached job, the job is cancelled.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	if j != nil && !j.settled {
		j.refs++
	}
	s.mu.Unlock()
	if j == nil {
		writeJSON(w, http.StatusNotFound, apiError{Version: s.ver, Error: fmt.Sprintf("unknown job %q", id)})
		return
	}
	defer s.detach(j)
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, apiError{Version: s.ver, Error: "streaming unsupported by this connection"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	emitProgress := func() {
		s.mu.Lock()
		st := j.status
		s.mu.Unlock()
		ev := progressEvent{Version: s.ver, ID: j.id, Kind: j.kind, Status: st, Stats: s.cfg.Backend.Stats(), TraceID: j.traceID}
		b, err := json.Marshal(ev)
		if err != nil {
			return
		}
		writeSSE(w, "progress", b)
		fl.Flush()
	}

	emitProgress()
	t := time.NewTicker(s.cfg.ProgressEvery)
	defer t.Stop()
	for {
		select {
		case <-j.done:
			body := s.settledBody(j)
			if body == nil {
				body = marshalBody(jobResponse{Version: s.ver, ID: j.id, Kind: j.kind, Status: j.status})
			}
			writeSSE(w, "done", body)
			fl.Flush()
			return
		case <-t.C:
			emitProgress()
		case <-r.Context().Done():
			return
		}
	}
}

// writeSSE frames one event. SSE data may not contain raw newlines, so
// multi-line payloads (the indented settled body) are split across
// data: lines; per the spec the client reassembles them with "\n".
func writeSSE(w http.ResponseWriter, event string, data []byte) {
	fmt.Fprintf(w, "event: %s\n", event)
	start := 0
	for i := 0; i <= len(data); i++ {
		if i == len(data) || data[i] == '\n' {
			fmt.Fprintf(w, "data: %s\n", data[start:i])
			start = i + 1
		}
	}
	fmt.Fprint(w, "\n")
}
