package expcache

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
)

// fakeRemote is an in-memory Remote with switchable failure injection and
// call and key accounting, so tests can pin how many round trips a
// prefetch costs. extra entries ride along in every batch answer, asked
// for or not.
type fakeRemote struct {
	mu         sync.Mutex
	entries    map[Key][]byte
	extra      map[Key][]byte
	gets       int
	puts       int
	batchCalls int
	batchKeys  int
	getErr     error
	putErr     error
	batchErr   error
}

func newFakeRemote() *fakeRemote {
	return &fakeRemote{entries: map[Key][]byte{}}
}

func (f *fakeRemote) Get(key Key) ([]byte, bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.gets++
	if f.getErr != nil {
		return nil, false, f.getErr
	}
	data, ok := f.entries[key]
	return data, ok, nil
}

func (f *fakeRemote) GetBatch(keys []Key) (map[Key][]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.batchCalls++
	f.batchKeys += len(keys)
	if f.batchErr != nil {
		return nil, f.batchErr
	}
	out := map[Key][]byte{}
	for _, k := range keys {
		if data, ok := f.entries[k]; ok {
			out[k] = append([]byte(nil), data...)
		}
	}
	for k, data := range f.extra {
		out[k] = append([]byte(nil), data...)
	}
	return out, nil
}

func (f *fakeRemote) Put(key Key, data []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.puts++
	if f.putErr != nil {
		return f.putErr
	}
	f.entries[key] = append([]byte(nil), data...)
	return nil
}

// TestPrefetchBatch pins the hot-tier prefetch path: one batch round trip
// pulls every absent key, skips resident and duplicate keys, rejects
// garbage without aborting the wave, and leaves later lookups as pure
// local hits — zero per-key remote gets.
func TestPrefetchBatch(t *testing.T) {
	remote := newFakeRemote()
	seed, _ := Open(t.TempDir())
	seed.SetRemote(remote)
	want := map[int64]point{}
	for n := int64(0); n < 3; n++ {
		want[n] = Do(seed, testKey(50+n), func() point { return point{Load: float64(n), Mean: n} })
	}
	remote.entries[testKey(58)] = []byte("not json") // poisoned remote entry

	c, _ := Open(t.TempDir())
	c.SetRemote(remote)
	local := Do(c, testKey(59), func() point { return point{Mean: 59} }) // already local

	keys := []Key{
		testKey(50), testKey(51), testKey(52),
		testKey(51), // duplicate: must not fetch twice
		testKey(58), // garbage upstream: counted, not served
		testKey(57), // absent everywhere: silently missing
		testKey(59), // local already: must not refetch
	}
	c.Prefetch(keys)

	st := c.Stats()
	if st.Prefetched != 3 {
		t.Fatalf("Prefetched = %d, want 3: %+v", st.Prefetched, st)
	}
	if st.RemoteErrors != 1 {
		t.Fatalf("RemoteErrors = %d, want 1 (the poisoned entry): %+v", st.RemoteErrors, st)
	}
	if remote.batchCalls != 1 || remote.batchKeys != 5 {
		t.Fatalf("batch traffic = %d calls / %d keys, want 1 call / 5 keys (50,51,52,57,58)",
			remote.batchCalls, remote.batchKeys)
	}

	gets := remote.gets
	for n := int64(0); n < 3; n++ {
		got := Do(c, testKey(50+n), func() point {
			t.Fatalf("recomputed prefetched entry %d", n)
			return point{}
		})
		if got != want[n] {
			t.Fatalf("prefetched entry %d = %+v, want %+v", n, got, want[n])
		}
	}
	if remote.gets != gets {
		t.Fatalf("lookups after prefetch reached the remote (%d gets, had %d)", remote.gets, gets)
	}
	if again := Do(c, testKey(59), func() point { t.Fatal("recomputed local entry"); return point{} }); again != local {
		t.Fatalf("local entry changed after prefetch: %+v", again)
	}
	st = c.Stats()
	if st.MemHits < 3 {
		t.Fatalf("prefetched entries should serve from the hot tier: %+v", st)
	}
}

// TestPrefetchStoresOnlyRequestedKeys pins that a batch answer cannot
// write past its request: an entry for a key already on disk, or for a
// key nobody asked for, is counted as a remote error and stored nowhere,
// so the disk and hot tiers keep agreeing.
func TestPrefetchStoresOnlyRequestedKeys(t *testing.T) {
	resident, wanted, stranger := testKey(81), testKey(82), testKey(83)
	remote := newFakeRemote()
	remote.entries[wanted] = []byte(`{"v":2}`)
	remote.extra = map[Key][]byte{
		resident: []byte(`{"v":666}`),
		stranger: []byte(`{"v":3}`),
	}
	c, _ := Open(t.TempDir())
	if err := c.PublishEntry(resident, []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	c.SetRemote(remote)
	c.Prefetch([]Key{resident, wanted})

	st := c.Stats()
	if st.Prefetched != 1 || st.RemoteErrors != 2 {
		t.Errorf("Prefetched = %d, RemoteErrors = %d; want 1 and 2 (the two unrequested entries): %+v",
			st.Prefetched, st.RemoteErrors, st)
	}
	for key, want := range map[Key]string{resident: `{"v":1}`, wanted: `{"v":2}`} {
		if data, err := os.ReadFile(c.path(key)); err != nil || string(data) != want {
			t.Errorf("disk entry %s = %q, %v; want %s", key.Hex()[:8], data, err, want)
		}
		if data, ok := c.EntryBytes(key); !ok || string(data) != want {
			t.Errorf("served entry %s = %q, %v; want %s", key.Hex()[:8], data, ok, want)
		}
	}
	if _, err := os.Stat(c.path(stranger)); !os.IsNotExist(err) {
		t.Errorf("unrequested entry was stored (stat: %v)", err)
	}
}

// TestPrefetchRefusesNull pins that a batch answer holding the JSON literal
// null for a requested key stores nothing: it counts as a remote error.
func TestPrefetchRefusesNull(t *testing.T) {
	key := testKey(84)
	remote := newFakeRemote()
	remote.entries[key] = []byte("null")
	c, _ := Open(t.TempDir())
	c.SetRemote(remote)
	c.Prefetch([]Key{key})
	if st := c.Stats(); st.Prefetched != 0 || st.RemoteErrors != 1 {
		t.Errorf("Prefetched = %d, RemoteErrors = %d; want 0 and 1: %+v", st.Prefetched, st.RemoteErrors, st)
	}
	if _, err := os.Stat(c.path(key)); !os.IsNotExist(err) {
		t.Errorf("null entry was stored (stat: %v)", err)
	}
	if data, ok := c.EntryBytes(key); ok {
		t.Errorf("EntryBytes served %q", data)
	}
}

// TestPrefetchDegradesCleanly pins the no-op edges: nil cache, no remote,
// an empty key list, and a failing batch call — none may panic, fetch
// per-key, or lose later lookups.
func TestPrefetchDegradesCleanly(t *testing.T) {
	var nilCache *Cache
	nilCache.Prefetch([]Key{testKey(60)})

	c, _ := Open(t.TempDir())
	c.Prefetch([]Key{testKey(60)}) // no remote

	failing := newFakeRemote()
	failing.batchErr = errors.New("tier down")
	failing.entries[testKey(61)] = []byte(`{"Load":1,"Mean":7}`)
	c2, _ := Open(t.TempDir())
	c2.SetRemote(failing)
	c2.Prefetch(nil)
	c2.Prefetch([]Key{testKey(61)})
	st := c2.Stats()
	if st.RemoteErrors != 1 || st.Prefetched != 0 || failing.batchCalls != 1 || failing.gets != 0 {
		t.Fatalf("failed batch should count one remote error, no prefetches and no per-key gets: %+v (%d batches, %d gets)",
			st, failing.batchCalls, failing.gets)
	}
	// The failed prefetch is advisory: the per-key remote path still works.
	got := Do(c2, testKey(61), func() point { t.Fatal("recomputed despite remote entry"); return point{} })
	if got.Mean != 7 {
		t.Fatalf("per-key fallback after failed prefetch = %+v", got)
	}
}

// TestRemoteHitWritesThrough pins the rendezvous read path: a local miss
// answered by the remote counts as both a hit and a remote hit, and the
// fetched bytes land in the local directory so the next lookup never
// touches the remote again.
func TestRemoteHitWritesThrough(t *testing.T) {
	seed, _ := Open(t.TempDir())
	remote := newFakeRemote()
	seed.SetRemote(remote)
	want := Do(seed, testKey(40), func() point { return point{Load: 0.25, Mean: 99} })

	c, _ := Open(t.TempDir())
	c.SetRemote(remote)
	got := Do(c, testKey(40), func() point {
		t.Fatal("computed despite a remote entry")
		return point{}
	})
	if got != want {
		t.Fatalf("remote hit = %+v, want %+v", got, want)
	}
	st := c.Stats()
	if st.Hits != 1 || st.RemoteHits != 1 || st.Misses != 0 {
		t.Fatalf("stats after remote hit = %+v, want 1 hit / 1 remote hit / 0 misses", st)
	}

	// Write-through: the entry is now local, so a fresh handle on the same
	// dir (with no remote) serves it without any remote traffic.
	gets := remote.gets
	c2, _ := Open(c.Dir())
	again := Do(c2, testKey(40), func() point {
		t.Fatal("computed despite a written-through entry")
		return point{}
	})
	if again != want {
		t.Fatalf("written-through value = %+v, want %+v", again, want)
	}
	if remote.gets != gets {
		t.Fatalf("local hit reached the remote (%d gets, had %d)", remote.gets, gets)
	}
	st2 := c2.Stats()
	if st2.Hits != 1 || st2.RemoteHits != 0 {
		t.Fatalf("local-hit stats = %+v, want a plain local hit", st2)
	}
}

// TestRemoteMissPublishesComputed pins the rendezvous write path: a
// computed miss is written through to the remote so other participants can
// rendezvous on it.
func TestRemoteMissPublishesComputed(t *testing.T) {
	c, _ := Open(t.TempDir())
	remote := newFakeRemote()
	c.SetRemote(remote)
	want := Do(c, testKey(41), func() point { return point{Load: 0.5, Mean: 7} })
	if remote.puts != 1 || len(remote.entries) != 1 {
		t.Fatalf("computed miss not published: %d puts, %d entries", remote.puts, len(remote.entries))
	}

	other, _ := Open(t.TempDir())
	other.SetRemote(remote)
	got := Do(other, testKey(41), func() point {
		t.Fatal("second participant recomputed a published entry")
		return point{}
	})
	if got != want {
		t.Fatalf("rendezvous value = %+v, want %+v", got, want)
	}
}

// TestRemoteErrorsAreAdvisory pins degradation: a failing remote is counted
// but never breaks a sweep — Get errors fall through to compute, Put errors
// still leave the local entry in place.
func TestRemoteErrorsAreAdvisory(t *testing.T) {
	c, _ := Open(t.TempDir())
	remote := newFakeRemote()
	remote.getErr = errors.New("remote down")
	remote.putErr = errors.New("remote down")
	c.SetRemote(remote)

	computes := 0
	got := Do(c, testKey(42), func() point { computes++; return point{Load: 1, Mean: 3} })
	if computes != 1 || got.Mean != 3 {
		t.Fatalf("compute fallback broken: computes=%d got=%+v", computes, got)
	}
	st := c.Stats()
	if st.RemoteErrors != 2 {
		t.Fatalf("RemoteErrors = %d, want 2 (one failed Get, one failed Put)", st.RemoteErrors)
	}
	if st.Misses != 1 || st.RemoteHits != 0 {
		t.Fatalf("stats = %+v, want a plain miss", st)
	}

	// The local entry survived the failed Put.
	again := Do(c, testKey(42), func() point {
		t.Fatal("recomputed despite a local entry")
		return point{}
	})
	if again != got {
		t.Fatalf("local entry lost after remote Put failure: %+v != %+v", again, got)
	}
}

// TestRemoteUndecodableEntryRejected pins that garbage from the remote is a
// remote error, never served and never written through.
func TestRemoteUndecodableEntryRejected(t *testing.T) {
	remote := newFakeRemote()
	remote.entries[testKey(43)] = []byte("certainly not json")
	c, _ := Open(t.TempDir())
	c.SetRemote(remote)
	computes := 0
	got := Do(c, testKey(43), func() point { computes++; return point{Mean: 11} })
	if computes != 1 || got.Mean != 11 {
		t.Fatalf("undecodable remote entry not recomputed: computes=%d got=%+v", computes, got)
	}
	if st := c.Stats(); st.RemoteErrors != 1 || st.RemoteHits != 0 {
		t.Fatalf("stats = %+v, want 1 remote error, 0 remote hits", st)
	}
}

// TestRemoteNullEntryRejected pins that a remote entry holding the JSON
// literal null is a remote error, not a hit: json.Unmarshal would decode it
// into the zero result without an error, so the point must be computed.
func TestRemoteNullEntryRejected(t *testing.T) {
	remote := newFakeRemote()
	remote.entries[testKey(46)] = []byte("null")
	c, _ := Open(t.TempDir())
	c.SetRemote(remote)
	computes := 0
	got := Do(c, testKey(46), func() point { computes++; return point{Load: 0.5, Mean: 7} })
	if computes != 1 || got.Mean != 7 {
		t.Fatalf("null remote entry served as a hit: computes=%d got=%+v", computes, got)
	}
	if st := c.Stats(); st.RemoteErrors != 1 || st.RemoteHits != 0 {
		t.Fatalf("stats = %+v, want 1 remote error, 0 remote hits", st)
	}
}

// TestEntryBytesAndPublishEntry pins the daemon-facing raw-entry API: a
// published entry round-trips byte-for-byte, invalid JSON is
// ErrInvalidEntry, and
// a corrupt on-disk entry is healed (deleted), not served.
func TestEntryBytesAndPublishEntry(t *testing.T) {
	c, _ := Open(t.TempDir())
	key := testKey(44)
	if _, ok := c.EntryBytes(key); ok {
		t.Fatal("EntryBytes reported a hit on an empty cache")
	}
	entry := []byte(`{"Load":0.5,"Mean":12}`)
	if err := c.PublishEntry(key, entry); err != nil {
		t.Fatal(err)
	}
	got, ok := c.EntryBytes(key)
	if !ok || string(got) != string(entry) {
		t.Fatalf("EntryBytes = %q, %v; want the published bytes", got, ok)
	}
	for _, bad := range []string{"not json", "null", "5", `"s"`, "[1]", `{"a":1} {}`} {
		if err := c.PublishEntry(key, []byte(bad)); !errors.Is(err, ErrInvalidEntry) {
			t.Fatalf("PublishEntry(%q) = %v, want ErrInvalidEntry", bad, err)
		}
	}
	var nilCache *Cache
	if err := nilCache.PublishEntry(key, entry); err == nil {
		t.Fatal("nil cache accepted a publish")
	}

	// Corrupt the published file behind the cache's back. The warm handle
	// still holds the good published bytes in its hot tier and keeps
	// serving them; a fresh handle sees only the torn file, refuses to
	// serve it, and deletes it so the slot heals.
	if err := os.WriteFile(c.path(key), []byte(`{"Load":`), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, ok := c.EntryBytes(key); !ok || string(got) != string(entry) {
		t.Fatalf("warm handle EntryBytes = %q, %v; want the hot-tier bytes", got, ok)
	}
	cold, err := Open(c.dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cold.EntryBytes(key); ok {
		t.Fatal("EntryBytes served a torn entry")
	}
	if _, err := os.Stat(c.path(key)); !os.IsNotExist(err) {
		t.Fatalf("torn entry not deleted: %v", err)
	}
}

// TestPublishEntryKeepsHeldEntry: PublishEntry cannot replace a key's
// entry. The held bytes again succeed; different bytes are ErrConflict and
// leave both tiers as they were, also for a handle whose hot tier is
// empty; a file that is not a valid entry is replaced.
func TestPublishEntryKeepsHeldEntry(t *testing.T) {
	c, _ := Open(t.TempDir())
	key, held, forged := testKey(47), []byte(`{"v":1}`), []byte(`{"v":666}`)
	if err := c.PublishEntry(key, held); err != nil {
		t.Fatal(err)
	}
	if err := c.PublishEntry(key, held); err != nil {
		t.Fatalf("publishing the held bytes again: %v", err)
	}
	cold, _ := Open(c.dir)
	for _, h := range []*Cache{c, cold} {
		if err := h.PublishEntry(key, forged); !errors.Is(err, ErrConflict) {
			t.Fatalf("publishing different bytes = %v, want ErrConflict", err)
		}
	}
	for _, h := range []*Cache{c, cold} {
		if got, ok := h.EntryBytes(key); !ok || string(got) != string(held) {
			t.Fatalf("EntryBytes after the refused publish = %q, %v; want %s", got, ok, held)
		}
	}
	if disk, err := os.ReadFile(c.path(key)); err != nil || string(disk) != string(held) {
		t.Fatalf("disk holds %q (%v), want %s", disk, err, held)
	}

	torn := testKey(48)
	if err := os.WriteFile(c.path(torn), []byte(`{"v":`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := c.PublishEntry(torn, held); err != nil {
		t.Fatalf("publishing over a torn file: %v", err)
	}
	if got, ok := cold.EntryBytes(torn); !ok || string(got) != string(held) {
		t.Fatalf("healed entry = %q, %v; want %s", got, ok, held)
	}
}

// TestParseKey pins the strict hex-key grammar shared by the HTTP routes.
func TestParseKey(t *testing.T) {
	key := testKey(45)
	parsed, err := ParseKey(key.Hex())
	if err != nil || parsed != key {
		t.Fatalf("ParseKey(Hex()) = %v, %v; want the original key", parsed, err)
	}
	for _, bad := range parseKeyRejects {
		if _, err := ParseKey(bad); err == nil {
			t.Errorf("ParseKey(%q) accepted a malformed key", bad)
		}
	}
}

// parseKeyRejects lists malformed keys ParseKey must refuse; FuzzParseKey
// starts from them too.
var parseKeyRejects = []string{
	"", "zz", strings.Repeat("a", 63), strings.Repeat("a", 65),
	strings.Repeat("g", 64), strings.Repeat("A", 63) + "!",
}

// TestHTTPRemoteAgainstFakeDaemon pins the HTTPRemote wire behavior — 200
// hit, 404 clean miss, non-2xx error, PUT publish — against a minimal
// in-process server speaking the daemon's entry routes.
func TestHTTPRemoteAgainstFakeDaemon(t *testing.T) {
	errKey := testKey(47) // the server 500s on this key
	var mu sync.Mutex
	store := map[string][]byte{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hex := strings.TrimPrefix(r.URL.Path, "/v1/cache/entries/")
		switch r.Method {
		case http.MethodGet:
			if hex == errKey.Hex() {
				http.Error(w, "internal", http.StatusInternalServerError)
				return
			}
			mu.Lock()
			data, ok := store[hex]
			mu.Unlock()
			if !ok {
				http.NotFound(w, r)
				return
			}
			w.Write(data) //nolint:errcheck
		case http.MethodPut:
			var buf [256]byte
			n, _ := r.Body.Read(buf[:])
			mu.Lock()
			store[hex] = append([]byte(nil), buf[:n]...)
			mu.Unlock()
		}
	}))
	defer srv.Close()

	h := NewHTTPRemote(srv.URL + "/") // trailing slash must be tolerated
	key := testKey(46)
	if _, ok, err := h.Get(key); ok || err != nil {
		t.Fatalf("empty store Get = %v, %v; want clean miss", ok, err)
	}
	entry := []byte(`{"Load":1,"Mean":2}`)
	if err := h.Put(key, entry); err != nil {
		t.Fatal(err)
	}
	data, ok, err := h.Get(key)
	if err != nil || !ok || string(data) != string(entry) {
		t.Fatalf("Get after Put = %q, %v, %v", data, ok, err)
	}

	// A non-2xx answer is an error, not a miss.
	if _, ok, err := h.Get(errKey); err == nil || ok {
		t.Fatalf("500 answer Get = %v, %v; want an error", ok, err)
	}
}

// TestHTTPRemoteGetBatch pins the batch wire client against a minimal
// collection-route server: present keys come back byte-for-byte, absent
// keys are omitted, and a wave beyond maxBatchKeys splits into exactly
// ceil(n/maxBatchKeys) requests.
func TestHTTPRemoteGetBatch(t *testing.T) {
	var mu sync.Mutex
	store := map[string][]byte{}
	var requests []int // keys-per-request, in arrival order
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/cache/entries" {
			http.NotFound(w, r)
			return
		}
		keys := strings.Split(r.URL.Query().Get("keys"), ",")
		mu.Lock()
		requests = append(requests, len(keys))
		w.Write([]byte(`{"entries":{`)) //nolint:errcheck
		first := true
		for _, hex := range keys {
			data, ok := store[hex]
			if !ok {
				continue
			}
			if !first {
				w.Write([]byte(",")) //nolint:errcheck
			}
			first = false
			fmt.Fprintf(w, "%q:%s", hex, data)
		}
		mu.Unlock()
		w.Write([]byte(`}}`)) //nolint:errcheck
	}))
	defer srv.Close()

	const n = maxBatchKeys + 44 // forces a second chunk
	keys := make([]Key, n)
	for i := range keys {
		keys[i] = testKey(int64(2000 + i))
		if i%2 == 0 { // half the keys exist upstream
			store[keys[i].Hex()] = []byte(fmt.Sprintf(`{"Load":0,"Mean":%d}`, i))
		}
	}

	h := NewHTTPRemote(srv.URL)
	got, err := h.GetBatch(keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(requests) != 2 || requests[0] != maxBatchKeys || requests[1] != n-maxBatchKeys {
		t.Fatalf("chunking = %v, want [%d %d]", requests, maxBatchKeys, n-maxBatchKeys)
	}
	if len(got) != n/2 {
		t.Fatalf("GetBatch returned %d entries, want %d", len(got), n/2)
	}
	for i, k := range keys {
		data, ok := got[k]
		if i%2 == 0 {
			if want := store[k.Hex()]; !ok || string(data) != string(want) {
				t.Fatalf("key %d = %q, %v; want %q", i, data, ok, want)
			}
		} else if ok {
			t.Fatalf("absent key %d served: %q", i, data)
		}
	}
}

// TestHTTPRemoteGetBatchOldDaemon pins that a daemon without the batch
// route is not special: its 404 is an error like any other non-200 answer
// (a 500 here), which Cache.Prefetch counts before the per-key Gets run.
func TestHTTPRemoteGetBatchOldDaemon(t *testing.T) {
	for _, code := range []int{http.StatusNotFound, http.StatusInternalServerError} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, http.StatusText(code), code)
		}))
		got, err := NewHTTPRemote(srv.URL).GetBatch([]Key{testKey(70), testKey(71)})
		srv.Close()
		if err == nil {
			t.Errorf("%d collection route = %d entries, nil error; want an error", code, len(got))
		}
	}
}
