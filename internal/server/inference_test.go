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

// TestInferenceDuplicatePostsCollapse: an identical inference submission
// is answered from the job table with the first job's bytes and no cache
// lookup, and a config that shares two of its points finds them in the
// cache, with the first answer's rows.
func TestInferenceDuplicatePostsCollapse(t *testing.T) {
	_, ts, cache := newTestServer(t, nil)
	_, first := await(t, ts, tinyInference)
	_, second := await(t, ts, tinyInference)
	if !bytes.Equal(first, second) {
		t.Fatalf("identical requests returned different bytes:\n--- a ---\n%s--- b ---\n%s", first, second)
	}
	// 2 networks × 1 graph × 1 batch × 1 seq = 2 points, each simulated
	// once; the resubmission asked the cache for none of them.
	if st := cache.Stats(); st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("misses = %d, hits = %d; want 2 and 0 (one simulation per point, the duplicate answered by the job table)",
			st.Misses, st.Hits)
	}

	// One more network: its point is new, the other two are cache hits, and
	// their rows lead the answer as they led the first one.
	_, wider := await(t, ts, `{"kind":"inference","quick":true,`+
		`"networks":["point-to-point","two-phase","token-ring"],"graphs":["moe-64-expert"]}`)
	if st := cache.Stats(); st.Misses != 3 || st.Hits != 2 {
		t.Fatalf("misses = %d, hits = %d; want 3 and 2 (the two shared points served from cache)", st.Misses, st.Hits)
	}
	if !bytes.HasPrefix(wider, first) || bytes.Count(wider, []byte("\n")) != bytes.Count(first, []byte("\n"))+1 {
		t.Fatalf("the wider sweep does not extend the first answer by one row:\n--- first ---\n%s--- wider ---\n%s", first, wider)
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
