package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"macrochip/internal/expcache"
	"macrochip/internal/harness"
	"macrochip/internal/networks"
	"macrochip/internal/sim"
)

// newTestServer boots a daemon on httptest with a fresh cache directory and
// a quiet logger; mutate adjusts the config before construction.
func newTestServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server, *expcache.Cache) {
	t.Helper()
	cache, err := expcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Runner:       harness.Runner{Cache: cache},
		Workers:      2,
		PollInterval: 10 * time.Millisecond,
		// Tests fire many submissions back to back; keep the limiter out of
		// the way unless a test overrides it.
		RatePerSec: 1000,
		Burst:      1000,
		Log:        slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(ctx) //nolint:errcheck // best-effort teardown
	})
	return s, ts, cache
}

func postExperiment(t *testing.T, ts *httptest.Server, body string) (int, JobView, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/experiments", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var view JobView
	if resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(raw, &view); err != nil {
			t.Fatalf("202 body not a job view: %v\n%s", err, raw)
		}
	}
	return resp.StatusCode, view, raw
}

func get(t *testing.T, url string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, raw
}

// jobStatus reads one job's status through the queue ("" when the table
// holds no such job).
func jobStatus(s *Server, id string) string {
	j, _ := s.queue.lookup(id)
	if j == nil {
		return ""
	}
	view, _ := s.queue.view(j)
	return view.Status
}

// awaitRunning polls until the job named id has started.
func awaitRunning(t *testing.T, s *Server, id string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for jobStatus(s, id) != StatusRunning {
		if time.Now().After(deadline) {
			t.Fatalf("experiment %s never started running", id)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// tinyFigure6 is a two-point figure-6 panel with quickCfg-sized windows —
// a few milliseconds of wall time.
const tinyFigure6 = `{"kind":"figure6","pattern":"uniform","networks":["point-to-point"],` +
	`"loads":[0.01,0.02],"warmup_ns":300,"measure_ns":900}`

// slowFigure6 runs long enough (hundreds of ms) to still be in flight when
// the test acts on it.
const slowFigure6 = `{"kind":"figure6","pattern":"uniform","networks":["point-to-point"],` +
	`"loads":[0.02],"warmup_ns":1000,"measure_ns":50000}`

// TestScalingResultMatchesHarnessGolden cross-checks the daemon against the
// repository's committed CLI artifact: a scaling experiment's CSV response
// must be byte-identical to the harness golden file that pins
// WriteScalingCSV output — the same bytes cmd/figures-style tooling writes.
func TestScalingResultMatchesHarnessGolden(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)
	code, view, raw := postExperiment(t, ts, `{"kind":"scaling","grid_sizes":[4,8]}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d: %s", code, raw)
	}
	code, hdr, body := get(t, ts.URL+"/v1/experiments/"+view.ID+"/result?wait=true")
	if code != http.StatusOK {
		t.Fatalf("GET result = %d: %s", code, body)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/csv") {
		t.Fatalf("Content-Type = %q, want text/csv", ct)
	}
	want, err := os.ReadFile(filepath.Join("..", "harness", "testdata", "scaling.csv.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("daemon CSV differs from the harness golden\n--- got ---\n%s--- want ---\n%s", body, want)
	}
}

// TestConcurrentIdenticalPostsCollapse is the headline daemon guarantee:
// two concurrent identical submissions execute exactly one simulation per
// point — observed via cache stats (misses = points, hits = points) — and
// both responses are byte-identical to what the harness (and therefore
// cmd/figures) writes for the same config.
func TestConcurrentIdenticalPostsCollapse(t *testing.T) {
	_, ts, cache := newTestServer(t, nil)

	var views [2]JobView
	for i := range views {
		code, view, raw := postExperiment(t, ts, tinyFigure6)
		if code != http.StatusAccepted {
			t.Fatalf("POST %d = %d: %s", i, code, raw)
		}
		views[i] = view
	}
	var bodies [2][]byte
	for i, view := range views {
		code, _, body := get(t, ts.URL+"/v1/experiments/"+view.ID+"/result?wait=true")
		if code != http.StatusOK {
			t.Fatalf("GET result %d = %d: %s", i, code, body)
		}
		bodies[i] = body
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatalf("identical requests returned different bytes:\n--- a ---\n%s--- b ---\n%s", bodies[0], bodies[1])
	}

	// Two points in the panel, two submissions: exactly one simulation per
	// point (2 misses), and the duplicate request fully served from the
	// cache (2 hits — joined flights and published entries both count).
	st := cache.Stats()
	if st.Misses != 2 {
		t.Fatalf("misses = %d, want 2 (one simulation per point)", st.Misses)
	}
	if st.Hits != 2 {
		t.Fatalf("hits = %d, want 2 (duplicate request served from cache)", st.Hits)
	}

	// Byte-identity with the CLI path: the same config through the public
	// harness entry point and CSV writer, on a fresh cache.
	other, err := expcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	base := harness.DefaultLoadPointConfig()
	base.Seed = 1
	base.Warmup = sim.FromNanoseconds(300)
	base.Measure = sim.FromNanoseconds(900)
	panel, err := harness.Figure6PanelWith(harness.Runner{Cache: other}, base, "uniform",
		[]networks.Kind{networks.PointToPoint}, []float64{0.01, 0.02})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := harness.WriteFigure6CSV(&want, panel); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bodies[0], want.Bytes()) {
		t.Fatalf("daemon CSV differs from the harness writer's\n--- daemon ---\n%s--- harness ---\n%s",
			bodies[0], want.String())
	}
}

// TestGracefulDrain pins the SIGTERM semantics: the in-flight simulation
// finishes, the queued one aborts, and new submissions are rejected.
func TestGracefulDrain(t *testing.T) {
	s, ts, _ := newTestServer(t, func(c *Config) { c.Workers = 1 })

	code, running, raw := postExperiment(t, ts, slowFigure6)
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d: %s", code, raw)
	}
	code, queued, raw := postExperiment(t, ts, tinyFigure6)
	if code != http.StatusAccepted {
		t.Fatalf("second POST = %d: %s", code, raw)
	}

	awaitRunning(t, s, running.ID)

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()

	// New work is rejected as soon as the drain begins.
	rejectDeadline := time.Now().Add(5 * time.Second)
	for {
		code, _, body := postExperiment(t, ts, tinyFigure6)
		if code == http.StatusServiceUnavailable {
			if !bytes.Contains(body, []byte("draining")) {
				t.Fatalf("503 body = %s, want draining message", body)
			}
			break
		}
		if time.Now().After(rejectDeadline) {
			t.Fatalf("submission during drain = %d, want 503", code)
		}
		time.Sleep(2 * time.Millisecond)
	}

	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got := jobStatus(s, running.ID); got != StatusDone {
		t.Fatalf("in-flight job after drain = %s, want done (drain must finish in-flight work)", got)
	}
	if got := jobStatus(s, queued.ID); got != StatusAborted {
		t.Fatalf("queued job after drain = %s, want aborted", got)
	}
	if code, _, _ := get(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatal("healthz must stay serving during drain")
	}
}

// TestRateLimit pins the 429 + Retry-After contract.
func TestRateLimit(t *testing.T) {
	_, ts, _ := newTestServer(t, func(c *Config) {
		c.RatePerSec = 0.01
		c.Burst = 1
	})
	code, _, raw := postExperiment(t, ts, `{"kind":"scaling","grid_sizes":[2]}`)
	if code != http.StatusAccepted {
		t.Fatalf("first POST = %d: %s", code, raw)
	}
	resp, err := http.Post(ts.URL+"/v1/experiments", "application/json",
		strings.NewReader(`{"kind":"scaling","grid_sizes":[2]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second POST = %d, want 429", resp.StatusCode)
	}
	retry, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || retry < 1 {
		t.Fatalf("Retry-After = %q, want an integer ≥ 1", resp.Header.Get("Retry-After"))
	}
	var body errorBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.Error.Message == "" {
		t.Fatalf("429 body not a structured error: %v", err)
	}
}

// malformedConfigs lists one request body per validation failure class and
// the field its 400 must name; FuzzExperimentConfig starts from them too.
var malformedConfigs = []struct {
	name, body, field string
}{
	{"not json", `{"kind":`, ""},
	{"missing kind", `{}`, "kind"},
	{"unknown kind", `{"kind":"nope"}`, "kind"},
	{"unknown field", `{"kind":"scaling","wat":1}`, ""},
	{"bad pattern", `{"kind":"figure6","pattern":"bogus"}`, "pattern"},
	{"bad network", `{"kind":"figure6","pattern":"uniform","networks":["warp-drive"]}`, "networks"},
	{"load out of range", `{"kind":"figure6","pattern":"uniform","loads":[1.5]}`, "loads"},
	{"window too long", `{"kind":"figure6","pattern":"uniform","measure_ns":2000000}`, "measure_ns"},
	{"bad grid size", `{"kind":"scaling","grid_sizes":[1]}`, "grid_sizes"},
	{"bad class", `{"kind":"resilience","classes":["meteor-strike"]}`, "classes"},
	{"negative rate", `{"kind":"resilience","rates":[-1]}`, "rates"},
	{"bad scale", `{"kind":"study","scale":99}`, "scale"},
	{"negative mtu", `{"kind":"inference","mtu":-4096}`, "mtu"},
	{"oversized mtu", `{"kind":"inference","mtu":2097152}`, "mtu"},
	// "shards" is no longer a config field: any value, in range or not,
	// is a structured 400 from the unknown-field check.
	{"negative shards", `{"kind":"figure6","pattern":"uniform","shards":-2}`, ""},
	{"oversized shards", `{"kind":"figure6","pattern":"uniform","shards":65}`, ""},
	{"in-range shards", `{"kind":"figure6","pattern":"uniform","shards":4}`, ""},
	// A repeated name would multiply a request's cells without bound.
	{"repeated network", `{"kind":"figure6","pattern":"uniform","networks":["two-phase","point-to-point","two-phase"]}`, "networks"},
	{"repeated class", `{"kind":"resilience","classes":["dark-laser","dark-laser"]}`, "classes"},
	// A list its kind never reads is refused, not carried unbounded.
	{"list the kind ignores", `{"kind":"study","loads":[0.5]}`, "loads"},
	// One config per body: a second value, or garbage, after the first is
	// refused rather than ignored.
	{"trailing data", `{"kind":"scaling","grid_sizes":[2]} {"kind":"nope"} garbage`, ""},
}

// TestMalformedConfigs pins the structured 400 contract for every
// validation failure class.
func TestMalformedConfigs(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)
	for _, tc := range malformedConfigs {
		t.Run(tc.name, func(t *testing.T) {
			code, _, raw := postExperiment(t, ts, tc.body)
			if code != http.StatusBadRequest {
				t.Fatalf("POST = %d, want 400: %s", code, raw)
			}
			var body errorBody
			if err := json.Unmarshal(raw, &body); err != nil || body.Error.Message == "" {
				t.Fatalf("400 body not a structured error: %s", raw)
			}
			if body.Error.Field != tc.field {
				t.Fatalf("error field = %q, want %q", body.Error.Field, tc.field)
			}
		})
	}
}

// TestEventsStreamNDJSON follows a job over the progress stream: every line
// is a well-formed event and the final one is terminal.
func TestEventsStreamNDJSON(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)
	code, view, raw := postExperiment(t, ts, `{"kind":"scaling","grid_sizes":[4]}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d: %s", code, raw)
	}
	resp, err := http.Get(ts.URL + "/v1/experiments/" + view.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}
	var last progressEvent
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Fatal("no progress events streamed")
	}
	if !Terminal(last.Job.Status) {
		t.Fatalf("stream ended on status %q, want terminal", last.Job.Status)
	}
	if last.Job.ID != view.ID {
		t.Fatalf("stream reported job %q, want %q", last.Job.ID, view.ID)
	}
}

// TestStatusListHealthzAndFormats covers the remaining read endpoints.
func TestStatusListHealthzAndFormats(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)
	code, view, raw := postExperiment(t, ts, `{"kind":"scaling","grid_sizes":[4]}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d: %s", code, raw)
	}

	if code, _, _ := get(t, ts.URL+"/v1/experiments/"+view.ID); code != http.StatusOK {
		t.Fatalf("status endpoint = %d", code)
	}
	if code, _, raw := get(t, ts.URL+"/v1/experiments/exp-999999"); code != http.StatusNotFound {
		t.Fatalf("unknown id = %d: %s", code, raw)
	}
	code, _, raw = get(t, ts.URL+"/v1/experiments")
	if code != http.StatusOK || !bytes.Contains(raw, []byte(view.ID)) {
		t.Fatalf("list = %d missing %s: %s", code, view.ID, raw)
	}

	code, _, raw = get(t, ts.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	var health struct {
		Status string         `json:"status"`
		Queue  map[string]int `json:"queue"`
	}
	if err := json.Unmarshal(raw, &health); err != nil || health.Status != "ok" {
		t.Fatalf("healthz body = %s", raw)
	}

	// Result formats: json decodes, text is non-empty, bogus is a 400.
	code, _, raw = get(t, ts.URL+"/v1/experiments/"+view.ID+"/result?wait=true&format=json")
	if code != http.StatusOK {
		t.Fatalf("json result = %d: %s", code, raw)
	}
	var doc struct {
		ID     string          `json:"id"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil || doc.ID != view.ID || len(doc.Result) == 0 {
		t.Fatalf("json result body = %s", raw)
	}
	code, _, raw = get(t, ts.URL+"/v1/experiments/"+view.ID+"/result?format=text")
	if code != http.StatusOK || len(raw) == 0 {
		t.Fatalf("text result = %d, %d bytes", code, len(raw))
	}
	if code, _, _ = get(t, ts.URL+"/v1/experiments/"+view.ID+"/result?format=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bogus format = %d, want 400", code)
	}

	code, _, raw = get(t, ts.URL+"/v1/cache/stats")
	if code != http.StatusOK || !bytes.Contains(raw, []byte(`"enabled": true`)) {
		t.Fatalf("cache stats = %d: %s", code, raw)
	}
}

// TestQueueFull pins the bounded-queue contract: with one worker occupied
// and a depth-1 queue, the third submission is rejected with 503 +
// Retry-After.
func TestQueueFull(t *testing.T) {
	s, ts, _ := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.QueueDepth = 1
	})
	code, running, raw := postExperiment(t, ts, slowFigure6)
	if code != http.StatusAccepted {
		t.Fatalf("POST 1 = %d: %s", code, raw)
	}
	// Wait until the worker picked the first job up, so the second one is
	// guaranteed to occupy the single queue slot.
	awaitRunning(t, s, running.ID)
	if code, _, raw := postExperiment(t, ts, tinyFigure6); code != http.StatusAccepted {
		t.Fatalf("POST 2 = %d: %s", code, raw)
	}
	resp, err := http.Post(ts.URL+"/v1/experiments", "application/json", strings.NewReader(tinyFigure6))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST 3 = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("queue-full 503 missing Retry-After")
	}
}

// TestFailedExperimentReportsError: a panic inside an experiment fails
// that job with a structured error, not the daemon, and the same queue
// runs the next job.
func TestFailedExperimentReportsError(t *testing.T) {
	s, ts, _ := newTestServer(t, func(c *Config) { c.Workers = 1 })
	s.queue.run = func(cfg ExperimentConfig, r harness.Runner) (*result, error) {
		if cfg.Kind == "study" {
			panic("boom")
		}
		return cfg.run(r)
	}
	code, failed, raw := postExperiment(t, ts, `{"kind":"study"}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d: %s", code, raw)
	}
	code, _, raw = get(t, ts.URL+"/v1/experiments/"+failed.ID+"/result?wait=true")
	if code != http.StatusConflict || !bytes.Contains(raw, []byte("experiment panicked: boom")) {
		t.Fatalf("result of the panicked job = %d: %s", code, raw)
	}
	code, _, raw = get(t, ts.URL+"/v1/experiments/"+failed.ID)
	var view JobView
	if err := json.Unmarshal(raw, &view); err != nil || code != http.StatusOK {
		t.Fatalf("status = %d: %s", code, raw)
	}
	if view.Status != StatusFailed || !strings.HasPrefix(view.Error, "experiment panicked") {
		t.Fatalf("job = %+v, want failed with \"experiment panicked\"", view)
	}

	code, next, raw := postExperiment(t, ts, `{"kind":"scaling","grid_sizes":[2]}`)
	if code != http.StatusAccepted {
		t.Fatalf("second POST = %d: %s", code, raw)
	}
	if code, _, raw := get(t, ts.URL+"/v1/experiments/"+next.ID+"/result?wait=true"); code != http.StatusOK {
		t.Fatalf("job after the panic = %d: %s", code, raw)
	}
}

// TestJobTableBound submits more jobs than the table keeps. QueueDepth 1
// keeps four terminal jobs, so after six finish the first two answer 410,
// while a job still running is never evicted.
func TestJobTableBound(t *testing.T) {
	s, ts, _ := newTestServer(t, func(c *Config) { c.QueueDepth = 1 })
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(release)
	s.queue.run = func(cfg ExperimentConfig, r harness.Runner) (*result, error) {
		if cfg.Kind == "figure6" {
			<-gate
		}
		return cfg.run(r)
	}
	code, slow, raw := postExperiment(t, ts, tinyFigure6)
	if code != http.StatusAccepted {
		t.Fatalf("POST slow = %d: %s", code, raw)
	}
	awaitRunning(t, s, slow.ID)

	scaling := func(n int) string { return fmt.Sprintf(`{"kind":"scaling","grid_sizes":[%d]}`, n) }
	var ids []string
	var first []byte
	for n := 2; n < 8; n++ {
		code, view, raw := postExperiment(t, ts, scaling(n))
		if code != http.StatusAccepted {
			t.Fatalf("POST %d = %d: %s", n, code, raw)
		}
		code, _, body := get(t, ts.URL+"/v1/experiments/"+view.ID+"/result?wait=true")
		if code != http.StatusOK {
			t.Fatalf("result %d = %d: %s", n, code, body)
		}
		if first == nil {
			first = body
		}
		ids = append(ids, view.ID)
	}

	for _, id := range ids[:2] {
		for _, path := range []string{"", "/result", "/events"} {
			if code, _, raw := get(t, ts.URL+"/v1/experiments/"+id+path); code != http.StatusGone {
				t.Fatalf("evicted %s%s = %d, want 410: %s", id, path, code, raw)
			}
		}
	}
	for _, id := range []string{jobID(100), "exp-1"} {
		if code, _, _ := get(t, ts.URL+"/v1/experiments/"+id); code != http.StatusNotFound {
			t.Fatalf("never-issued %s = %d, want 404", id, code)
		}
	}

	code, _, raw = get(t, ts.URL+"/v1/experiments")
	var list struct {
		Experiments []JobView `json:"experiments"`
	}
	if err := json.Unmarshal(raw, &list); err != nil || code != http.StatusOK {
		t.Fatalf("list = %d: %s", code, raw)
	}
	var listed []string
	for _, v := range list.Experiments {
		listed = append(listed, v.ID)
	}
	if want := append([]string{slow.ID}, ids[2:]...); !slices.Equal(listed, want) {
		t.Fatalf("listed %v, want the running job and the newest four %v", listed, want)
	}
	_, _, raw = get(t, ts.URL+"/healthz")
	var health struct {
		Queue map[string]int `json:"queue"`
	}
	if err := json.Unmarshal(raw, &health); err != nil {
		t.Fatal(err)
	}
	if health.Queue["finished"] != 4 || health.Queue["running"] != 1 {
		t.Fatalf("healthz queue = %v, want 4 finished and 1 running", health.Queue)
	}

	code, again, raw := postExperiment(t, ts, scaling(2))
	if code != http.StatusAccepted {
		t.Fatalf("resubmit = %d: %s", code, raw)
	}
	if _, _, body := get(t, ts.URL+"/v1/experiments/"+again.ID+"/result?wait=true"); !bytes.Equal(body, first) {
		t.Fatalf("resubmitted config returned different bytes:\n%s\nwant\n%s", body, first)
	}

	release()
	if code, _, body := get(t, ts.URL+"/v1/experiments/"+slow.ID+"/result?wait=true"); code != http.StatusOK {
		t.Fatalf("slow job's result = %d: %s", code, body)
	}
}

// TestTinyLoadInjectsNothing submits a load whose mean gap passes the end
// of the time axis: the job is done with nothing accepted or in flight,
// and the daemon keeps serving. The windows are short so that a generator
// that floods the network fails here in milliseconds instead of exhausting
// memory.
func TestTinyLoadInjectsNothing(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)
	code, view, raw := postExperiment(t, ts, `{"kind":"figure6","pattern":"uniform",`+
		`"networks":["point-to-point"],"loads":[1e-300],"warmup_ns":1,"measure_ns":1}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d: %s", code, raw)
	}
	code, _, body := get(t, ts.URL+"/v1/experiments/"+view.ID+"/result?wait=true")
	if code != http.StatusOK {
		t.Fatalf("result = %d: %s", code, body)
	}
	rows, err := csv.NewReader(bytes.NewReader(body)).ReadAll()
	if err != nil || len(rows) != 2 {
		t.Fatalf("CSV = %v: %s", err, body)
	}
	for i, col := range rows[0] {
		if col == "accepted_gbs" || col == "inflight" {
			if v, err := strconv.ParseFloat(rows[1][i], 64); err != nil || v != 0 {
				t.Fatalf("%s = %s, want 0:\n%s", col, rows[1][i], body)
			}
		}
	}
	if code, _, _ := get(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz after the job = %d", code)
	}
}

func ExampleExperimentConfig() {
	cfg, _ := ExperimentConfig{Kind: "scaling", GridSizes: []int{4}}.normalize()
	fmt.Println(cfg.Kind, cfg.Seed, cfg.GridSizes)
	// Output: scaling 1 [4]
}
