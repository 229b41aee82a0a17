package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"macrochip/internal/expcache"
	"macrochip/internal/harness"
)

// entryKey mints a distinct key per n by hashing a labelled string.
func entryKey(n int64) expcache.Key {
	return expcache.Key(sha256.Sum256([]byte(fmt.Sprintf("entries-test-v1 n=%d", n))))
}

func putEntry(t *testing.T, url string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body) //nolint:errcheck
	return resp.StatusCode, buf.Bytes()
}

// TestCacheEntryPutGetRoundTrip pins the rendezvous store: a PUT entry
// comes back byte-for-byte on GET, and the cache doc counts both sides.
func TestCacheEntryPutGetRoundTrip(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)
	key := entryKey(1)
	entry := []byte(`{"load":0.25,"mean_ns":42}`)

	code, body := putEntry(t, ts.URL+"/v1/cache/entries/"+key.Hex(), entry)
	if code != http.StatusOK {
		t.Fatalf("PUT = %d: %s", code, body)
	}
	var ack struct {
		Key   string `json:"key"`
		Bytes int    `json:"bytes"`
	}
	if err := json.Unmarshal(body, &ack); err != nil || ack.Key != key.Hex() || ack.Bytes != len(entry) {
		t.Fatalf("PUT ack = %s (err %v), want key %s / %d bytes", body, err, key.Hex(), len(entry))
	}

	code, _, got := get(t, ts.URL+"/v1/cache/entries/"+key.Hex())
	if code != http.StatusOK || string(got) != string(entry) {
		t.Fatalf("GET = %d %q, want 200 with the published bytes", code, got)
	}

	code, _, doc := get(t, ts.URL+"/v1/cache/stats")
	if code != http.StatusOK {
		t.Fatalf("cache stats = %d: %s", code, doc)
	}
	var stats struct {
		EntriesServed uint64 `json:"entries_served"`
		EntriesStored uint64 `json:"entries_stored"`
	}
	if err := json.Unmarshal(doc, &stats); err != nil {
		t.Fatalf("cache stats not JSON: %v\n%s", err, doc)
	}
	if stats.EntriesServed != 1 || stats.EntriesStored != 1 {
		t.Fatalf("entries counters = %+v, want 1 served / 1 stored", stats)
	}
}

// TestCacheEntryErrors pins the route's failure grammar: absent entry 404,
// malformed key 400, a body that is not a JSON object (null included) 400,
// disabled cache 503.
func TestCacheEntryErrors(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)
	missing := entryKey(2)
	if code, _, body := get(t, ts.URL+"/v1/cache/entries/"+missing.Hex()); code != http.StatusNotFound {
		t.Fatalf("absent entry GET = %d: %s", code, body)
	}
	if code, body := putEntry(t, ts.URL+"/v1/cache/entries/"+missing.Hex(), []byte("not json")); code != http.StatusBadRequest {
		t.Fatalf("invalid-JSON PUT = %d: %s", code, body)
	}
	for _, bad := range []string{"zz", strings.Repeat("a", 63), strings.Repeat("g", 64)} {
		if code, _, body := get(t, ts.URL+"/v1/cache/entries/"+bad); code != http.StatusBadRequest {
			t.Fatalf("malformed key %q GET = %d: %s", bad, code, body)
		}
	}
	for _, bad := range []string{"null", "5", "[]"} {
		if code, body := putEntry(t, ts.URL+"/v1/cache/entries/"+missing.Hex(), []byte(bad)); code != http.StatusBadRequest {
			t.Fatalf("PUT of %s = %d: %s", bad, code, body)
		}
	}
	if code, _, body := get(t, ts.URL+"/v1/cache/entries/"+missing.Hex()); code != http.StatusNotFound {
		t.Fatalf("refused PUT was stored: GET = %d: %s", code, body)
	}

	_, noCache, _ := newTestServer(t, func(c *Config) { c.Runner = harness.Runner{} })
	if code, _, body := get(t, noCache.URL+"/v1/cache/entries/"+missing.Hex()); code != http.StatusServiceUnavailable {
		t.Fatalf("disabled-cache GET = %d: %s", code, body)
	}
	if code, body := putEntry(t, noCache.URL+"/v1/cache/entries/"+missing.Hex(), []byte(`{}`)); code != http.StatusServiceUnavailable {
		t.Fatalf("disabled-cache PUT = %d: %s", code, body)
	}
}

// TestCacheEntryBatchRoute pins GET /v1/cache/entries?keys=...: present
// keys come back byte-for-byte in one answer, absent keys are omitted (not
// errors), and the failure grammar matches the per-key routes — malformed
// key 400, missing parameter 400, oversized wave 400, disabled cache 503.
func TestCacheEntryBatchRoute(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)
	present := []expcache.Key{entryKey(10), entryKey(11)}
	entries := map[string][]byte{}
	for i, key := range present {
		entry := []byte(`{"mean_ns":` + strings.Repeat("4", i+1) + `}`)
		entries[key.Hex()] = entry
		if code, body := putEntry(t, ts.URL+"/v1/cache/entries/"+key.Hex(), entry); code != http.StatusOK {
			t.Fatalf("PUT = %d: %s", code, body)
		}
	}
	absent := entryKey(12)

	query := present[0].Hex() + "," + present[1].Hex() + "," + absent.Hex()
	code, _, body := get(t, ts.URL+"/v1/cache/entries?keys="+query)
	if code != http.StatusOK {
		t.Fatalf("batch GET = %d: %s", code, body)
	}
	var doc struct {
		Entries map[string]json.RawMessage `json:"entries"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("batch answer not JSON: %v\n%s", err, body)
	}
	if len(doc.Entries) != len(present) {
		t.Fatalf("batch served %d entries, want %d: %s", len(doc.Entries), len(present), body)
	}
	for hex, want := range entries {
		if got, ok := doc.Entries[hex]; !ok || string(got) != string(want) {
			t.Fatalf("entry %s = %q, %v; want %q", hex, got, ok, want)
		}
	}
	if _, ok := doc.Entries[absent.Hex()]; ok {
		t.Fatal("absent key present in batch answer")
	}

	if code, _, body := get(t, ts.URL+"/v1/cache/entries?keys="); code != http.StatusBadRequest {
		t.Fatalf("empty keys = %d: %s", code, body)
	}
	if code, _, body := get(t, ts.URL+"/v1/cache/entries?keys=zz"); code != http.StatusBadRequest {
		t.Fatalf("malformed key = %d: %s", code, body)
	}
	huge := strings.Repeat(present[0].Hex()+",", maxBatchEntryKeys) + present[0].Hex()
	if code, _, body := get(t, ts.URL+"/v1/cache/entries?keys="+huge); code != http.StatusBadRequest {
		t.Fatalf("oversized wave = %d: %s", code, body)
	}

	_, noCache, _ := newTestServer(t, func(c *Config) { c.Runner = harness.Runner{} })
	if code, _, body := get(t, noCache.URL+"/v1/cache/entries?keys="+present[0].Hex()); code != http.StatusServiceUnavailable {
		t.Fatalf("disabled-cache batch GET = %d: %s", code, body)
	}
}

// TestCacheEntryBatchFeedsPrefetch pins the whole prefetch loop in one
// process: entries published to the daemon come down through
// HTTPRemote.GetBatch into a worker-side cache via Prefetch, after which
// lookups are local hits.
func TestCacheEntryBatchFeedsPrefetch(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)
	keys := []expcache.Key{entryKey(20), entryKey(21)}
	for i, key := range keys {
		entry := []byte(`{"published":` + strings.Repeat("7", i+1) + `}`)
		if code, body := putEntry(t, ts.URL+"/v1/cache/entries/"+key.Hex(), entry); code != http.StatusOK {
			t.Fatalf("PUT = %d: %s", code, body)
		}
	}

	worker, err := expcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	worker.SetRemote(expcache.NewHTTPRemote(ts.URL))
	worker.Prefetch(keys)
	st := worker.Stats()
	if st.Prefetched != uint64(len(keys)) || st.RemoteErrors != 0 {
		t.Fatalf("prefetch against the live daemon: %+v, want %d prefetched", st, len(keys))
	}
	for _, key := range keys {
		if _, ok := worker.EntryBytes(key); !ok {
			t.Fatalf("entry %s absent after prefetch", key.Hex())
		}
	}
}

// TestCacheEntryFeedsExperiments pins the rendezvous end to end inside one
// process: an entry published over HTTP under the key a harness point would
// use is then served to that point as a cache hit — the daemon's GET/PUT
// surface and the runner share one store.
func TestCacheEntryFeedsExperiments(t *testing.T) {
	_, ts, cache := newTestServer(t, nil)
	key := entryKey(3)
	entry := []byte(`{"published":"via http"}`)
	if code, body := putEntry(t, ts.URL+"/v1/cache/entries/"+key.Hex(), entry); code != http.StatusOK {
		t.Fatalf("PUT = %d: %s", code, body)
	}
	data, ok := cache.EntryBytes(key)
	if !ok || string(data) != string(entry) {
		t.Fatalf("runner-side EntryBytes = %q, %v; want the HTTP-published entry", data, ok)
	}
}

// TestDistStatsRoute pins /v1/dist/stats in both modes: enabled=false
// without a coordinator, and live counters with one attached.
func TestDistStatsRoute(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)
	code, _, body := get(t, ts.URL+"/v1/dist/stats")
	if code != http.StatusOK {
		t.Fatalf("dist stats = %d: %s", code, body)
	}
	var off struct {
		Enabled bool `json:"enabled"`
	}
	if err := json.Unmarshal(body, &off); err != nil || off.Enabled {
		t.Fatalf("dist stats without a coordinator = %s (err %v), want enabled=false", body, err)
	}

	// A listener-only coordinator (no local workers) is the lightest real
	// coordinator the daemon can front.
	dist, err := harness.NewCoordinator(harness.CoordinatorConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer dist.Close()
	_, ts2, _ := newTestServer(t, func(c *Config) { c.Dist = dist })
	code, _, body = get(t, ts2.URL+"/v1/dist/stats")
	if code != http.StatusOK {
		t.Fatalf("dist stats = %d: %s", code, body)
	}
	var on struct {
		Enabled bool              `json:"enabled"`
		Stats   harness.DistStats `json:"stats"`
	}
	if err := json.Unmarshal(body, &on); err != nil || !on.Enabled {
		t.Fatalf("dist stats with a coordinator = %s (err %v), want enabled=true", body, err)
	}
}
