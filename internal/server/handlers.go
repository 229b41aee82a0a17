package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"macrochip/internal/expcache"
)

// handleSubmit is POST /v1/experiments: rate-limit, decode, validate,
// enqueue, 202.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if ok, retry := s.limiter.Allow(clientKey(r)); !ok {
		w.Header().Set("Retry-After", strconv.Itoa(int(retry/time.Second)))
		writeError(w, http.StatusTooManyRequests, "rate limit exceeded", "")
		return
	}
	cfg, err := decodeConfig(r.Body)
	if err != nil {
		var ce *ConfigError
		if errors.As(err, &ce) {
			writeError(w, http.StatusBadRequest, ce.Msg, ce.Field)
		} else {
			writeError(w, http.StatusBadRequest, err.Error(), "")
		}
		return
	}
	view, err := s.queue.Submit(cfg)
	if err != nil { // ErrQueueFull or ErrDraining
		if errors.Is(err, ErrQueueFull) {
			w.Header().Set("Retry-After", "1")
		}
		writeError(w, http.StatusServiceUnavailable, err.Error(), "")
		return
	}
	w.Header().Set("Location", "/v1/experiments/"+view.ID)
	writeJSON(w, http.StatusAccepted, view)
}

// handleList is GET /v1/experiments: every retained job in submission
// order.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"experiments": s.queue.List()})
}

// findJob looks the path's job up once; the handler keeps the pointer, so
// a later eviction cannot race the request. An id the queue issued and has
// since evicted is 410, one it never issued 404; either way findJob writes
// the error and returns nil.
func (s *Server) findJob(w http.ResponseWriter, r *http.Request) *job {
	id := r.PathValue("id")
	j, gone := s.queue.lookup(id)
	switch {
	case gone:
		writeError(w, http.StatusGone,
			fmt.Sprintf("experiment %s was evicted from the job table; resubmit its config", id), "")
	case j == nil:
		writeError(w, http.StatusNotFound, "no such experiment", "")
	}
	return j
}

// handleStatus is GET /v1/experiments/{id}: one job's status document.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j := s.findJob(w, r); j != nil {
		view, _ := s.queue.view(j)
		writeJSON(w, http.StatusOK, view)
	}
}

// handleResult is GET /v1/experiments/{id}/result?format=csv|json|text.
// format defaults to csv — the headline artifact, byte-identical to what
// cmd/figures writes for the same config. Each format is rendered from the
// job's typed rows with the harness writers the CLIs use. ?wait=true
// blocks (within the route timeout) until the job turns terminal instead
// of answering 409.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.findJob(w, r)
	if j == nil {
		return
	}
	if wait, _ := strconv.ParseBool(r.URL.Query().Get("wait")); wait {
		select {
		case <-j.done:
		case <-r.Context().Done():
			return
		}
	}
	view, res := s.queue.view(j)
	switch {
	case !Terminal(view.Status):
		writeError(w, http.StatusConflict,
			fmt.Sprintf("experiment %s is %s; retry later or pass ?wait=true", view.ID, view.Status), "")
		return
	case view.Status != StatusDone:
		writeError(w, http.StatusConflict,
			fmt.Sprintf("experiment %s %s: %s", view.ID, view.Status, view.Error), "")
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "csv":
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		res.csv(w) //nolint:errcheck // response already committed
	case "json":
		writeJSON(w, http.StatusOK, map[string]any{"id": view.ID, "config": view.Config, "result": res.rows})
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, res.text()) //nolint:errcheck // response already committed
	default:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown format %q (want csv, json or text)", format), "format")
	}
}

// progressEvent is one NDJSON line of GET /v1/experiments/{id}/events.
type progressEvent struct {
	Time  time.Time      `json:"time"`
	Job   JobView        `json:"job"`
	Cache expcache.Stats `json:"cache"`
}

// handleEvents streams job progress as NDJSON: one line immediately, one
// per poll tick (with live shared-cache counters as the progress signal),
// and a final line when the job turns terminal.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.findJob(w, r)
	if j == nil {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emit := func() bool {
		view, _ := s.queue.view(j)
		if err := enc.Encode(progressEvent{Time: s.cfg.Now(), Job: view, Cache: s.Cache().Stats()}); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return !Terminal(view.Status)
	}
	if !emit() {
		return
	}
	ticker := time.NewTicker(s.cfg.PollInterval)
	defer ticker.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-j.done:
			emit()
			return
		case <-ticker.C:
			if !emit() {
				return
			}
		}
	}
}

// handleHealthz is GET /healthz: liveness plus a small operational summary.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	queued, running, finished := s.queue.Counts()
	status := "ok"
	if s.queue.Draining() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    status,
		"uptime_ms": s.cfg.Now().Sub(s.started).Milliseconds(),
		"queue":     map[string]int{"queued": queued, "running": running, "finished": finished},
		"cache":     s.cacheDoc(),
	})
}

// handleCacheStats is GET /v1/cache/stats: the shared store's live
// counters — the observable proof that duplicate requests collapse.
func (s *Server) handleCacheStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.cacheDoc())
}

func (s *Server) cacheDoc() map[string]any {
	c := s.Cache()
	return map[string]any{
		"enabled":        c != nil,
		"dir":            c.Dir(),
		"stats":          c.Stats(),
		"entries_served": s.entriesServed.Load(),
		"entries_stored": s.entriesStored.Load(),
	}
}

// handleCacheEntryGet is GET /v1/cache/entries/{key}: serve one raw entry
// from the shared store — the rendezvous read of a distributed sweep. 404
// is a clean miss; a disabled cache is 503 so clients can tell "not here"
// from "nowhere to look".
func (s *Server) handleCacheEntryGet(w http.ResponseWriter, r *http.Request) {
	c := s.Cache()
	if c == nil {
		writeError(w, http.StatusServiceUnavailable, "result cache disabled", "")
		return
	}
	key, err := expcache.ParseKey(r.PathValue("key"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error(), "key")
		return
	}
	data, ok := c.EntryBytes(key)
	if !ok {
		writeError(w, http.StatusNotFound, "no such entry", "")
		return
	}
	s.entriesServed.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(data) //nolint:errcheck // response already committed
}

// maxBatchEntryKeys caps one batch request's key list — a bound on the
// response size and the per-request filesystem work, matched to the
// client's own chunking (expcache.HTTPRemote splits larger waves).
const maxBatchEntryKeys = 512

// handleCacheEntryBatch is GET /v1/cache/entries?keys=hex,hex,...: serve
// every requested entry the store has in one round trip — the prefetch
// read of a distributed sweep wave. Absent keys are simply omitted from
// the answer; a malformed key is a 400 (the client computed it, so a bad
// one is a bug, not a miss).
func (s *Server) handleCacheEntryBatch(w http.ResponseWriter, r *http.Request) {
	c := s.Cache()
	if c == nil {
		writeError(w, http.StatusServiceUnavailable, "result cache disabled", "")
		return
	}
	raw := r.URL.Query().Get("keys")
	if raw == "" {
		writeError(w, http.StatusBadRequest, "missing keys parameter", "keys")
		return
	}
	hexes := strings.Split(raw, ",")
	if len(hexes) > maxBatchEntryKeys {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("too many keys (%d, max %d)", len(hexes), maxBatchEntryKeys), "keys")
		return
	}
	type served struct {
		hex  string
		data []byte
	}
	entries := make([]served, 0, len(hexes))
	for _, hex := range hexes {
		key, err := expcache.ParseKey(hex)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error(), "keys")
			return
		}
		if data, ok := c.EntryBytes(key); ok {
			entries = append(entries, served{hex, data})
			s.entriesServed.Add(1)
		}
	}
	// The envelope is assembled by hand, not writeJSON: re-encoding would
	// reformat the nested raw entries, and the batch route must hand back
	// exactly the bytes the per-key GET serves so prefetched entries land
	// on workers byte-identical to locally computed ones. Every entry was
	// validated as JSON at publish and again by EntryBytes, so splicing is
	// safe.
	var buf bytes.Buffer
	buf.WriteString(`{"entries":{`)
	for i, e := range entries {
		if i > 0 {
			buf.WriteByte(',')
		}
		fmt.Fprintf(&buf, "%q:", e.hex)
		buf.Write(e.data)
	}
	buf.WriteString("}}\n")
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(buf.Bytes()) //nolint:errcheck // the response is already committed
}

// handleCacheEntryPut is PUT /v1/cache/entries/{key}: publish one entry
// into the shared store — the rendezvous write. The body must be a JSON
// object (the invariant every local writer maintains); entries are
// content-addressed, so re-publishing a key is harmless.
func (s *Server) handleCacheEntryPut(w http.ResponseWriter, r *http.Request) {
	c := s.Cache()
	if c == nil {
		writeError(w, http.StatusServiceUnavailable, "result cache disabled", "")
		return
	}
	key, err := expcache.ParseKey(r.PathValue("key"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error(), "key")
		return
	}
	data, err := io.ReadAll(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading entry body: "+err.Error(), "")
		return
	}
	if err := c.PublishEntry(key, data); err != nil {
		writeError(w, http.StatusBadRequest, err.Error(), "")
		return
	}
	s.entriesStored.Add(1)
	writeJSON(w, http.StatusOK, map[string]any{"key": key.Hex(), "bytes": len(data)})
}

// handleDistStats is GET /v1/dist/stats: the attached coordinator's live
// counters, or enabled=false when the daemon is not fronting a sweep.
func (s *Server) handleDistStats(w http.ResponseWriter, r *http.Request) {
	d := s.cfg.Dist
	if d == nil {
		writeJSON(w, http.StatusOK, map[string]any{"enabled": false})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"enabled": true, "stats": d.Stats()})
}

// clientKey is the rate-limit identity: the remote IP without the
// ephemeral port.
func clientKey(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}
