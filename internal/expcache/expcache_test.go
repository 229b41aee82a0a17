package expcache

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

type point struct {
	Load float64
	Mean int64
}

// testKey mints a distinct key per n by hashing a labelled string.
func testKey(n int64) Key {
	return Key(sha256.Sum256([]byte(fmt.Sprintf("test-salt-v1 n=%d", n))))
}

func TestDoComputesOnceThenHits(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	computes := 0
	compute := func() point {
		computes++
		return point{Load: 0.3, Mean: 1234}
	}
	first := Do(c, testKey(1), compute)
	second := Do(c, testKey(1), compute)
	if computes != 1 {
		t.Fatalf("computed %d times, want 1", computes)
	}
	if first != second {
		t.Fatalf("cached value %+v != computed %+v", second, first)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 miss + 1 hit", st)
	}
	// The store published through the hot tier, so the hit is served from
	// memory: a MemHit, with no disk bytes read.
	if st.MemHits != 1 || st.BytesRead != 0 {
		t.Fatalf("hit not served from the hot tier: %+v", st)
	}
	if st.BytesWritten == 0 || st.WriteErrors != 0 {
		t.Fatalf("byte accounting off: %+v", st)
	}
	// A fresh handle on the same directory starts with a cold hot tier, so
	// its hit pays the disk read — and counts the bytes.
	c2, err := Open(c.dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := Do(c2, testKey(1), compute); got != first {
		t.Fatalf("disk-path value %+v != hot-path value %+v", got, first)
	}
	if computes != 1 {
		t.Fatalf("computed %d times, want 1 (fresh handle must hit disk)", computes)
	}
	st2 := c2.Stats()
	if st2.Hits != 1 || st2.MemHits != 0 || st2.BytesRead == 0 {
		t.Fatalf("fresh handle did not hit disk: %+v", st2)
	}
}

func TestEntriesPersistAcrossHandles(t *testing.T) {
	dir := t.TempDir()
	c1, _ := Open(dir)
	want := Do(c1, testKey(2), func() point { return point{Load: 0.5, Mean: 77} })
	c2, _ := Open(dir)
	got := Do(c2, testKey(2), func() point {
		t.Fatal("second handle recomputed a persisted entry")
		return point{}
	})
	if got != want {
		t.Fatalf("persisted value %+v != original %+v", got, want)
	}
}

func TestCorruptEntryIsMissAndHeals(t *testing.T) {
	dir := t.TempDir()
	c, _ := Open(dir)
	key := testKey(3)
	Do(c, key, func() point { return point{Mean: 10} })
	p := filepath.Join(dir, key.Hex()+".json")

	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"truncated", []byte(`{"Load":0.1,"Me`)},
		{"garbage", []byte("\x00\xffnot json at all")},
		{"empty", nil},
	} {
		if err := os.WriteFile(p, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		got := Do(c, key, func() point { return point{Mean: 10} })
		if got.Mean != 10 {
			t.Fatalf("%s entry: got %+v after recompute", tc.name, got)
		}
		// The recompute must have healed the slot: a further Do is a hit.
		hitsBefore := c.Stats().Hits
		Do(c, key, func() point {
			t.Fatalf("%s entry: slot not healed, recomputed again", tc.name)
			return point{}
		})
		if c.Stats().Hits != hitsBefore+1 {
			t.Fatalf("%s entry: healed slot did not hit", tc.name)
		}
	}
}

// TestNullEntryIsRefused pins that the JSON literal null, which is valid
// JSON and decodes into any result as its zero value, is never an entry: a
// null file on disk is a miss and is deleted, EntryBytes does not serve
// it, and a value that encodes as null is not stored.
func TestNullEntryIsRefused(t *testing.T) {
	c, _ := Open(t.TempDir())
	key := testKey(4)
	if err := os.WriteFile(c.path(key), []byte("null"), 0o644); err != nil {
		t.Fatal(err)
	}
	var v point
	if c.load(key, &v) {
		t.Fatal("null entry on disk loaded as a hit")
	}
	if _, err := os.Stat(c.path(key)); !os.IsNotExist(err) {
		t.Fatalf("null entry not deleted: %v", err)
	}

	if err := os.WriteFile(c.path(key), []byte(" null\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if data, ok := c.EntryBytes(key); ok {
		t.Fatalf("EntryBytes served %q", data)
	}
	computes := 0
	got := Do(c, key, func() point { computes++; return point{Mean: 4} })
	if computes != 1 || got.Mean != 4 {
		t.Fatalf("null entry not recomputed: computes=%d got=%+v", computes, got)
	}

	nilKey := testKey(5)
	Do(c, nilKey, func() *point { return nil })
	if st := c.Stats(); st.WriteErrors != 1 {
		t.Fatalf("WriteErrors = %d, want 1 for a value encoding as null", st.WriteErrors)
	}
	if _, err := os.Stat(c.path(nilKey)); !os.IsNotExist(err) {
		t.Fatalf("null value was stored (stat: %v)", err)
	}
}

func TestSaltBumpInvalidates(t *testing.T) {
	dir := t.TempDir()
	c, _ := Open(dir)
	// Two keys for the same point under two salts: the second must miss
	// rather than serve the first's entry.
	k1 := Key(sha256.Sum256([]byte("model-v1 n=9")))
	k2 := Key(sha256.Sum256([]byte("model-v2 n=9")))
	Do(c, k1, func() point { return point{Mean: 1} })
	recomputed := false
	Do(c, k2, func() point { recomputed = true; return point{Mean: 2} })
	if !recomputed {
		t.Fatal("bumped-salt key served a stale entry")
	}
}

func TestSharedDirConcurrentRunners(t *testing.T) {
	// Two handles over one directory, hammered concurrently with overlapping
	// keys — the pattern of two harness processes sharing -cache-dir. Run
	// under -race this pins the locking; the value check pins that every
	// caller sees a complete entry (atomic rename: no partial reads).
	dir := t.TempDir()
	c1, _ := Open(dir)
	c2, _ := Open(dir)
	caches := []*Cache{c1, c2}
	var wg sync.WaitGroup
	var computes atomic.Int64
	const keys = 8
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				n := int64(i % keys)
				got := Do(caches[g%2], testKey(100+n), func() point {
					computes.Add(1)
					return point{Load: float64(n), Mean: n * 10}
				})
				if got.Mean != n*10 || got.Load != float64(n) {
					t.Errorf("goroutine %d saw torn value %+v for key %d", g, got, n)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	// Each handle single-flights internally and reads the other's published
	// entries; duplicate work across handles is bounded, not corrupt.
	if c := computes.Load(); c > 2*keys {
		t.Fatalf("%d computes for %d keys across 2 handles, want ≤ %d", c, keys, 2*keys)
	}
}

func TestSingleFlightDedupes(t *testing.T) {
	c, _ := Open(t.TempDir())
	var computes atomic.Int64
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			Do(c, testKey(7), func() point {
				computes.Add(1)
				<-gate // hold the flight open so everyone piles up on it
				return point{Mean: 7}
			})
		}()
	}
	close(gate)
	wg.Wait()
	if computes.Load() != 1 {
		t.Fatalf("single flight computed %d times, want 1", computes.Load())
	}
}

func TestPanicPropagatesToWaiters(t *testing.T) {
	// A panicking compute used to close the flight with val unset, so every
	// waiter died on `interface conversion: interface {} is nil` — a
	// misleading crash pointing at the cache instead of the compute. The
	// original panic value must reach the computing caller and each waiter,
	// and the flight must be torn down so a later Do recomputes.
	c, _ := Open(t.TempDir())
	key := testKey(40)
	entered := make(chan struct{})
	gate := make(chan struct{})
	recovered := make(chan any, 3)

	run := func(compute func() point) {
		defer func() { recovered <- recover() }()
		Do(c, key, compute)
		t.Error("Do returned normally from a panicking flight")
	}
	go run(func() point {
		close(entered)
		<-gate
		panic("boom-42")
	})
	<-entered
	for i := 0; i < 2; i++ {
		// The waiters panic with the leader's value whether they join the
		// flight or (in a rare schedule) start a fresh one after teardown.
		go run(func() point { panic("boom-42") })
	}
	time.Sleep(50 * time.Millisecond) // let the waiters reach the flight
	close(gate)
	for i := 0; i < 3; i++ {
		if r := <-recovered; r != "boom-42" {
			t.Fatalf("caller %d recovered %v, want boom-42", i, r)
		}
	}
	// The key must not be poisoned: a fresh Do computes and succeeds.
	if got := Do(c, key, func() point { return point{Mean: 9} }); got.Mean != 9 {
		t.Fatalf("post-panic Do returned %+v", got)
	}
}

func TestJoinedFlightsCountAsHits(t *testing.T) {
	// Waiters that join an in-flight computation are served a result they
	// did not compute — hits. Before the fix they incremented nothing, so
	// Summary() undercounted exactly the concurrent-duplicate traffic the
	// daemon exists to absorb. Whether a duplicate joins the flight or
	// arrives late and loads the published entry, hits+misses must equal
	// the number of Do calls.
	c, _ := Open(t.TempDir())
	key := testKey(41)
	entered := make(chan struct{})
	gate := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		Do(c, key, func() point {
			close(entered)
			<-gate
			return point{Mean: 7}
		})
	}()
	<-entered
	const dups = 8
	for i := 0; i < dups; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := Do(c, key, func() point {
				t.Error("duplicate caller recomputed")
				return point{}
			})
			if got.Mean != 7 {
				t.Errorf("duplicate caller got %+v", got)
			}
		}()
	}
	time.Sleep(20 * time.Millisecond) // let the duplicates pile onto the flight
	close(gate)
	wg.Wait()
	st := c.Stats()
	if st.Misses != 1 || st.Hits != dups {
		t.Fatalf("stats = %+v, want 1 miss + %d hits", st, dups)
	}
	if st.Hits+st.Misses != dups+1 {
		t.Fatalf("hits+misses = %d, want %d (one per Do call)", st.Hits+st.Misses, dups+1)
	}
}

func TestPublishedEntryMode(t *testing.T) {
	// Entries are published via os.CreateTemp, whose 0600 mode survives the
	// rename. In a shared cache directory (concurrent runners, the daemon's
	// store) that makes one user's entries unreadable by everyone else, so
	// the publish path must chmod to 0644 first.
	dir := t.TempDir()
	c, _ := Open(dir)
	key := testKey(42)
	Do(c, key, func() point { return point{Mean: 1} })
	fi, err := os.Stat(filepath.Join(dir, key.Hex()+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if got := fi.Mode().Perm(); got != 0o644 {
		t.Fatalf("published entry mode = %04o, want 0644", got)
	}
}

func TestNilCacheComputesDirectly(t *testing.T) {
	var c *Cache
	got := Do(c, testKey(1), func() point { return point{Mean: 5} })
	if got.Mean != 5 {
		t.Fatalf("nil cache returned %+v", got)
	}
	if c.Dir() != "" || c.Stats() != (Stats{}) {
		t.Fatal("nil cache methods not inert")
	}
}

func TestWriteFailureDegradesToRecompute(t *testing.T) {
	dir := t.TempDir()
	c, _ := Open(dir)
	// Make the directory unwritable so the temp-file create fails; reads of
	// existing entries still work and misses still return computed results.
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(dir, 0o755)
	if os.Geteuid() == 0 {
		t.Skip("running as root: directory permissions are not enforced")
	}
	got := Do(c, testKey(11), func() point { return point{Mean: 3} })
	if got.Mean != 3 {
		t.Fatalf("write-failed Do returned %+v", got)
	}
	if c.Stats().WriteErrors != 1 {
		t.Fatalf("write errors = %d, want 1", c.Stats().WriteErrors)
	}
}
