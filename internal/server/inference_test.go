package server

import (
	"bytes"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tinyInference is a two-network, one-preset quick sweep — well under a
// second of wall time.
const tinyInference = `{"kind":"inference","quick":true,` +
	`"networks":["point-to-point","two-phase"],"graphs":["moe-64-expert"]}`

// TestInferenceQuickMatchesHarnessGolden is the acceptance pin for the
// inference kind: the daemon's quick-sweep CSV must be byte-identical to
// the committed harness golden — the same bytes `cmd/inference -quick
// -csv` writes, because daemon, CLI and golden test all execute
// harness.QuickInferenceConfig().
func TestInferenceQuickMatchesHarnessGolden(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)
	code, view, raw := postExperiment(t, ts, `{"kind":"inference","quick":true}`)
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
	want, err := os.ReadFile(filepath.Join("..", "harness", "testdata", "inference.csv.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("daemon CSV differs from the harness golden\n--- got ---\n%s--- want ---\n%s", body, want)
	}
}

// TestInferenceDuplicatePostsCollapse: two identical inference submissions
// run one simulation per point and return identical bytes — the same
// single-flight guarantee the other kinds enjoy.
func TestInferenceDuplicatePostsCollapse(t *testing.T) {
	_, ts, cache := newTestServer(t, nil)
	var bodies [2][]byte
	for i := range bodies {
		code, view, raw := postExperiment(t, ts, tinyInference)
		if code != http.StatusAccepted {
			t.Fatalf("POST %d = %d: %s", i, code, raw)
		}
		code, _, body := get(t, ts.URL+"/v1/experiments/"+view.ID+"/result?wait=true")
		if code != http.StatusOK {
			t.Fatalf("GET result %d = %d: %s", i, code, body)
		}
		bodies[i] = body
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatalf("identical requests returned different bytes:\n--- a ---\n%s--- b ---\n%s", bodies[0], bodies[1])
	}
	// 2 networks × 1 graph × 1 batch × 1 seq = 2 points.
	st := cache.Stats()
	if st.Misses != 2 {
		t.Fatalf("misses = %d, want 2 (one simulation per point)", st.Misses)
	}
	if st.Hits != 2 {
		t.Fatalf("hits = %d, want 2 (duplicate served from cache)", st.Hits)
	}
}

// inferenceValidation lists inference request bodies that must 400 and the
// field each must name; FuzzExperimentConfig starts from them too.
var inferenceValidation = []struct {
	name, body, field string
}{
	{"unknown graph", `{"kind":"inference","graphs":["resnet"]}`, "graphs"},
	{"unknown network", `{"kind":"inference","networks":["hypercube"]}`, "networks"},
	{"batch too large", `{"kind":"inference","batches":[65]}`, "batches"},
	{"zero batch", `{"kind":"inference","batches":[0]}`, "batches"},
	{"seq too large", `{"kind":"inference","seq_lens":[4096]}`, "seq_lens"},
	{"too many seqs", `{"kind":"inference","batches":[1,2,3,4,5,6,7,8,9]}`, "batches"},
	{"repeated graph", `{"kind":"inference","graphs":["prefill","decode-attention","prefill"]}`, "graphs"},
	{"repeated network", `{"kind":"inference","networks":["two-phase","two-phase"]}`, "networks"},
}

func TestInferenceValidation(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)
	for _, tc := range inferenceValidation {
		code, _, raw := postExperiment(t, ts, tc.body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: code = %d, want 400 (%s)", tc.name, code, raw)
			continue
		}
		if !strings.Contains(string(raw), tc.field) {
			t.Errorf("%s: 400 body %q does not name field %q", tc.name, raw, tc.field)
		}
	}
}
