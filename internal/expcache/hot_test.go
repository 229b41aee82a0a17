package expcache

import (
	"fmt"
	"testing"
)

// hotEntrySize is the encoded size of one test point entry, pinned so the
// eviction tests can build byte budgets that hold an exact entry count.
func hotEntrySize(t *testing.T) int {
	t.Helper()
	seed, _ := Open(t.TempDir())
	Do(seed, testKey(1000), func() point { return point{Load: 0.5, Mean: 1000} })
	data, ok := seed.EntryBytes(testKey(1000))
	if !ok {
		t.Fatal("seed entry not published")
	}
	return len(data)
}

// TestHotTierFIFOEviction pins the hot tier's replacement policy: a budget
// holding exactly two entries evicts insertion-oldest first, an evicted key
// falls back to a disk hit (and is re-admitted), and the resident byte
// count never exceeds the cap.
func TestHotTierFIFOEviction(t *testing.T) {
	size := hotEntrySize(t)
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c.hotCap = 2 * size

	for n := int64(0); n < 3; n++ {
		Do(c, testKey(1000+n), func() point { return point{Load: 0.5, Mean: 1000 + n} })
	}
	c.hotMu.Lock()
	resident, bytes, cap := len(c.hot), c.hotBytes, c.hotCap
	c.hotMu.Unlock()
	if resident != 2 || bytes > cap {
		t.Fatalf("after 3 stores under a 2-entry budget: %d resident, %d/%d bytes", resident, bytes, cap)
	}
	if _, ok := c.hotGet(testKey(1000)); ok {
		t.Fatal("oldest entry still resident; eviction is not FIFO")
	}
	for n := int64(1); n < 3; n++ {
		if _, ok := c.hotGet(testKey(1000 + n)); !ok {
			t.Fatalf("entry %d evicted out of FIFO order", n)
		}
	}

	// The evicted key is still a hit — from disk — and the read re-admits
	// it, displacing the now-oldest resident.
	before := c.Stats()
	got := Do(c, testKey(1000), func() point {
		t.Fatal("recomputed an evicted-but-published entry")
		return point{}
	})
	if got.Mean != 1000 {
		t.Fatalf("disk fallback returned %+v", got)
	}
	st := c.Stats()
	if st.Hits != before.Hits+1 || st.MemHits != before.MemHits || st.BytesRead <= before.BytesRead {
		t.Fatalf("evicted-entry hit should be a disk hit: before %+v, after %+v", before, st)
	}
	if _, ok := c.hotGet(testKey(1000)); !ok {
		t.Fatal("disk hit did not re-admit the entry")
	}
	if _, ok := c.hotGet(testKey(1001)); ok {
		t.Fatal("re-admission did not evict the oldest resident")
	}
}

// TestHotTierMemHitsAreHits pins the counter containment: every MemHit is
// also a Hit, and a disabled tier (cap 0) turns would-be MemHits into
// plain disk hits without changing the values served.
func TestHotTierMemHitsAreHits(t *testing.T) {
	c, _ := Open(t.TempDir())
	want := Do(c, testKey(1100), func() point { return point{Load: 0.1, Mean: 9} })
	for i := 0; i < 3; i++ {
		if got := Do(c, testKey(1100), func() point { t.Fatal("recompute"); return point{} }); got != want {
			t.Fatalf("hot hit %d = %+v, want %+v", i, got, want)
		}
	}
	st := c.Stats()
	if st.MemHits > st.Hits {
		t.Fatalf("MemHits %d exceeds Hits %d", st.MemHits, st.Hits)
	}
	if st.MemHits != 3 || st.Hits != 3 {
		t.Fatalf("stats = %+v, want 3 hits, all from memory", st)
	}

	off, _ := Open(c.dir)
	off.hotCap = 0
	for i := 0; i < 2; i++ {
		if got := Do(off, testKey(1100), func() point { t.Fatal("recompute"); return point{} }); got != want {
			t.Fatalf("disk hit %d with the tier disabled = %+v, want %+v", i, got, want)
		}
	}
	off.hotMu.Lock()
	resident := len(off.hot)
	off.hotMu.Unlock()
	if st := off.Stats(); resident != 0 || st.MemHits != 0 || st.Hits != 2 || st.BytesRead == 0 {
		t.Fatalf("disabled-tier hits should read disk: %d resident, %+v", resident, st)
	}
}

// TestHotTierOversizeEntrySkipped pins the admission guard: an entry larger
// than the entire budget is served and persisted normally but never
// admitted, so one huge entry cannot flush the whole tier.
func TestHotTierOversizeEntrySkipped(t *testing.T) {
	c, _ := Open(t.TempDir())
	c.hotCap = 8 // smaller than any encoded point
	Do(c, testKey(1200), func() point { return point{Load: 0.2, Mean: 4} })
	c.hotMu.Lock()
	resident, bytes := len(c.hot), c.hotBytes
	c.hotMu.Unlock()
	if resident != 0 || bytes != 0 {
		t.Fatalf("oversize entry admitted: %d resident, %d bytes", resident, bytes)
	}
	if got := Do(c, testKey(1200), func() point { t.Fatal("recompute"); return point{} }); got.Mean != 4 {
		t.Fatalf("oversize entry not served from disk: %+v", got)
	}
}

// TestHotTierSharedAcrossEntryAPIs pins that the daemon-facing EntryBytes
// path and the Do path share one tier: bytes published through either are
// served hot to the other, byte-for-byte.
func TestHotTierSharedAcrossEntryAPIs(t *testing.T) {
	c, _ := Open(t.TempDir())
	key := testKey(1300)
	entry := []byte(fmt.Sprintf(`{"Load":%g,"Mean":%d}`, 0.75, int64(21)))
	if err := c.PublishEntry(key, entry); err != nil {
		t.Fatal(err)
	}
	got := Do(c, key, func() point { t.Fatal("recomputed a published entry"); return point{} })
	if got.Mean != 21 {
		t.Fatalf("Do after PublishEntry = %+v", got)
	}
	if st := c.Stats(); st.MemHits != 1 {
		t.Fatalf("publish did not pre-warm the tier for Do: %+v", st)
	}
	raw, ok := c.EntryBytes(key)
	if !ok || string(raw) != string(entry) {
		t.Fatalf("EntryBytes = %q, %v; want the published bytes", raw, ok)
	}
}
