// Package expcache is a persistent, content-addressed result cache for
// simulation points. PR 1 made every experiment point a pure function of
// (config, derived seed); this package exploits that purity: the first run
// of a point simulates and stores the result struct, every later run — in
// this process or any other sharing the cache directory — deserializes it
// in microseconds instead of resimulating in seconds.
//
// Addressing: the key is a SHA-256 over a canonical serialization of the
// full point config plus a model-version salt (see Key). The value
// is the complete result struct, JSON-encoded — Go's JSON float encoding is
// shortest-round-trip, so decoded results are bit-identical to computed
// ones and cached CSV output is byte-identical to cold output.
//
// Durability: entries are written to a temp file in the cache directory and
// published with an atomic rename, so a reader can never observe a partial
// entry and a crashed or concurrent writer can never corrupt one. Bytes from
// outside the process (PublishEntry) are hard-linked into place instead, so
// they never replace an entry. Unreadable or undecodable entries are
// deleted and treated as misses. Cache write failures are counted, never
// fatal: the cache degrades to recomputation.
//
// Concurrency: the cache is safe for concurrent use by the experiment
// harness's worker pool, and an in-process single-flight layer deduplicates
// identical points inside one study (e.g. the shared zero-load anchors
// across figure-6 panels) so each distinct point simulates at most once per
// process even on a cold cache. Across processes the worst case is duplicate
// work, never corruption: both writers rename identical bytes into place.
//
// A nil *Cache is the disabled layer: Do computes directly, and every
// method is a no-op, so callers thread a single pointer with no branching.
package expcache

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// Cache is one result-cache directory handle. Create with Open; the zero
// value is not usable, but a nil *Cache is (it disables caching).
type Cache struct {
	dir    string
	remote Remote

	mu       sync.Mutex
	inflight map[Key]*flight

	// The hot tier: a byte-capped in-memory map of published entry bytes in
	// front of the directory. Every byte in it came from (or went through)
	// the same atomic-publish path as the file it shadows, so serving from
	// memory is byte-for-byte the disk read it saves. FIFO eviction —
	// entries are immutable and equally small, so recency tracking would
	// buy little over insertion order.
	hotMu    sync.Mutex
	hot      map[Key][]byte
	hotFIFO  []Key
	hotBytes int
	hotCap   int

	hits         atomic.Uint64
	misses       atomic.Uint64
	memHits      atomic.Uint64
	remoteHits   atomic.Uint64
	remoteErrors atomic.Uint64
	prefetched   atomic.Uint64
	bytesRead    atomic.Uint64
	bytesWritten atomic.Uint64
	writeErrors  atomic.Uint64
}

// flight is one in-process computation of a key; latecomers for the same
// key wait on done and share val instead of recomputing. If the compute
// panicked, panicVal carries the panic value and val is unset: waiters
// re-propagate the original panic instead of crashing on a nil interface
// conversion.
type flight struct {
	done     chan struct{}
	val      any
	panicVal any
}

// DefaultHotBytes is the hot tier's byte budget. Entries are
// small JSON result structs (hundreds of bytes to a few KB), so 64 MiB
// holds every entry of any realistic sweep; the cap exists to bound a
// pathological cache, not to force eviction in normal use.
const DefaultHotBytes = 64 << 20

// Open returns a cache rooted at dir, creating the directory if needed.
func Open(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Cache{
		dir:      dir,
		inflight: map[Key]*flight{},
		hot:      map[Key][]byte{},
		hotCap:   DefaultHotBytes,
	}, nil
}

// hotGet returns the in-memory bytes for key, if resident. The returned
// slice is shared and must not be mutated: it is what the key serves until
// evicted.
func (c *Cache) hotGet(key Key) ([]byte, bool) {
	c.hotMu.Lock()
	defer c.hotMu.Unlock()
	data, ok := c.hot[key]
	return data, ok
}

// hotPut admits entry bytes to the hot tier, evicting oldest-first to make
// room. An entry larger than the whole budget is skipped; re-admitting a
// resident key is a no-op, so a resident entry keeps the bytes it was
// admitted with.
func (c *Cache) hotPut(key Key, data []byte) {
	c.hotMu.Lock()
	defer c.hotMu.Unlock()
	if len(data) > c.hotCap {
		return
	}
	if _, ok := c.hot[key]; ok {
		return
	}
	c.hotEvictLocked(len(data))
	c.hot[key] = data
	c.hotFIFO = append(c.hotFIFO, key)
	c.hotBytes += len(data)
}

// hotEvictLocked drops oldest entries until need more bytes fit under the
// cap. Caller holds hotMu.
func (c *Cache) hotEvictLocked(need int) {
	for c.hotBytes+need > c.hotCap && len(c.hotFIFO) > 0 {
		k := c.hotFIFO[0]
		c.hotFIFO = c.hotFIFO[1:]
		c.hotBytes -= len(c.hot[k])
		delete(c.hot, k)
	}
}

// hotDrop removes one entry (used when a resident entry fails to decode —
// impossible unless memory was corrupted, but the disk path self-heals and
// the hot tier must not heal worse).
func (c *Cache) hotDrop(key Key) {
	c.hotMu.Lock()
	defer c.hotMu.Unlock()
	data, ok := c.hot[key]
	if !ok {
		return
	}
	delete(c.hot, key)
	c.hotBytes -= len(data)
	for i, k := range c.hotFIFO {
		if k == key {
			c.hotFIFO = append(c.hotFIFO[:i], c.hotFIFO[i+1:]...)
			break
		}
	}
}

// DefaultDir is the conventional per-user cache location
// (os.UserCacheDir()/macrochip/expcache), or "" when the platform reports
// no user cache directory — callers treat "" as cache-disabled.
func DefaultDir() string {
	base, err := os.UserCacheDir()
	if err != nil {
		return ""
	}
	return filepath.Join(base, "macrochip", "expcache")
}

// Summary formats a one-line hit/miss report for end-of-run logging.
func (c *Cache) Summary() string {
	if c == nil {
		return "result cache disabled"
	}
	s := c.Stats()
	line := fmt.Sprintf("result cache %s: %d hits, %d misses, %.1f MB read, %.1f MB written",
		c.dir, s.Hits, s.Misses, float64(s.BytesRead)/1e6, float64(s.BytesWritten)/1e6)
	if s.MemHits > 0 {
		line += fmt.Sprintf(", %d mem hits", s.MemHits)
	}
	if s.RemoteHits > 0 || s.RemoteErrors > 0 {
		line += fmt.Sprintf(", %d remote hits", s.RemoteHits)
	}
	if s.Prefetched > 0 {
		line += fmt.Sprintf(", %d prefetched", s.Prefetched)
	}
	if s.RemoteErrors > 0 {
		line += fmt.Sprintf(", %d remote errors", s.RemoteErrors)
	}
	if s.WriteErrors > 0 {
		line += fmt.Sprintf(", %d write errors", s.WriteErrors)
	}
	return line
}

// Dir reports the cache directory ("" for a nil cache).
func (c *Cache) Dir() string {
	if c == nil {
		return ""
	}
	return c.dir
}

// Stats is a point-in-time snapshot of cache traffic.
type Stats struct {
	Hits, Misses uint64
	// MemHits counts the subset of Hits served from the in-memory hot tier
	// without touching the directory. Hits − MemHits − RemoteHits is the
	// disk hit count.
	MemHits uint64
	// RemoteHits counts the subset of Hits that were served by the remote
	// tier (a local miss answered by the rendezvous store, then written
	// through locally). Hits − RemoteHits is the local hit count, and
	// Hits + Misses still equals total lookups.
	RemoteHits uint64
	// Prefetched counts entries pulled from the remote tier in batch ahead
	// of lookup (Prefetch) — not hits themselves, but the reason a later
	// lookup is a MemHit instead of a remote round trip.
	Prefetched uint64
	// RemoteErrors counts remote operations (Get or Put) that failed; each
	// degraded to the local-only path without losing the result.
	RemoteErrors uint64
	// BytesRead / BytesWritten count successfully decoded entry bytes and
	// successfully published entry bytes.
	BytesRead, BytesWritten uint64
	// WriteErrors counts entries that could not be persisted (the result
	// was still returned — write failure degrades to recomputation later).
	WriteErrors uint64
}

// Stats returns the current counters (zero for a nil cache).
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Hits:         c.hits.Load(),
		Misses:       c.misses.Load(),
		MemHits:      c.memHits.Load(),
		RemoteHits:   c.remoteHits.Load(),
		RemoteErrors: c.remoteErrors.Load(),
		Prefetched:   c.prefetched.Load(),
		BytesRead:    c.bytesRead.Load(),
		BytesWritten: c.bytesWritten.Load(),
		WriteErrors:  c.writeErrors.Load(),
	}
}

// Do returns the cached value for key, computing and persisting it on a
// miss. Identical in-process calls are single-flighted: only the first
// computes; the rest block, share its result, and count as hits. If the
// compute panics, the panic propagates with its original value to the
// computing caller and every waiter, and the flight is torn down so a
// later Do recomputes. A nil cache computes directly. The value type T
// must round-trip through encoding/json; all harness result structs do.
func Do[T any](c *Cache, key Key, compute func() T) T {
	if c == nil {
		return compute()
	}
	c.mu.Lock()
	if f, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		<-f.done
		if f.panicVal != nil {
			panic(f.panicVal)
		}
		// A joined flight is a hit: this caller was served a result it did
		// not compute. The daemon's whole point is absorbing concurrent
		// duplicates, so they must show up in Stats/Summary.
		c.hits.Add(1)
		return f.val.(T)
	}
	f := &flight{done: make(chan struct{})}
	c.inflight[key] = f
	c.mu.Unlock()
	defer func() {
		// A panicking compute must not close the flight with val unset —
		// record the panic for the waiters, then resume unwinding here too.
		if r := recover(); r != nil {
			f.panicVal = r
		}
		c.mu.Lock()
		delete(c.inflight, key)
		c.mu.Unlock()
		close(f.done)
		if f.panicVal != nil {
			panic(f.panicVal)
		}
	}()

	var v T
	if c.load(key, &v) {
		c.hits.Add(1)
		f.val = v
		return v
	}
	if c.loadRemote(key, &v) {
		// A remote hit is still a hit — the caller was served a result it
		// did not compute — so RemoteHits stays a subset of Hits and
		// Hits + Misses keeps counting total lookups.
		c.hits.Add(1)
		c.remoteHits.Add(1)
		f.val = v
		return v
	}
	c.misses.Add(1)
	v = compute()
	c.store(key, v)
	f.val = v
	return v
}

// path returns the entry filename for a key.
func (c *Cache) path(key Key) string {
	return filepath.Join(c.dir, key.Hex()+".json")
}

// load reads and decodes one entry, hot tier first. Any failure — missing,
// truncated, or corrupt — reports false; undecodable files are deleted so
// the slot heals on the next store instead of failing forever. A hot-tier
// serve counts as a MemHit and skips the disk read entirely (and so does
// not count toward BytesRead, which measures bytes actually read from
// storage); a disk serve admits the entry to the hot tier on the way out.
func (c *Cache) load(key Key, out any) bool {
	if data, ok := c.hotGet(key); ok {
		if err := json.Unmarshal(data, out); err == nil {
			c.memHits.Add(1)
			return true
		}
		c.hotDrop(key)
	}
	p := c.path(key)
	data, err := os.ReadFile(p)
	if err != nil {
		return false
	}
	if !validEntry(data) || json.Unmarshal(data, out) != nil {
		os.Remove(p)
		return false
	}
	c.bytesRead.Add(uint64(len(data)))
	c.hotPut(key, data)
	return true
}

// loadRemote asks the remote tier for one entry on a local miss. The fetched
// bytes must be a valid entry and decode into out — anything else is
// treated as a remote error, not served — and a good entry is written
// through to the local directory byte-for-byte, so the local file is
// identical to the one the remote's original writer published.
func (c *Cache) loadRemote(key Key, out any) bool {
	if c.remote == nil {
		return false
	}
	data, ok, err := c.remote.Get(key)
	if err != nil {
		c.remoteErrors.Add(1)
		return false
	}
	if !ok {
		return false
	}
	if !validEntry(data) || json.Unmarshal(data, out) != nil {
		c.remoteErrors.Add(1)
		return false
	}
	c.bytesRead.Add(uint64(len(data)))
	c.storeBytes(key, data)
	return true
}

// store publishes one entry: encode, atomic local publish, then write-through
// to the remote tier so other sweep participants can rendezvous on it.
// Failures, and values that do not encode as a JSON object, are counted
// and swallowed — a result that cannot be cached is still a result.
func (c *Cache) store(key Key, v any) {
	data, err := json.Marshal(v)
	if err != nil || !validEntry(data) {
		c.writeErrors.Add(1)
		return
	}
	c.storeBytes(key, data)
	if c.remote != nil {
		if err := c.remote.Put(key, data); err != nil {
			c.remoteErrors.Add(1)
		}
	}
}

// storeBytes publishes pre-encoded entry bytes atomically: write a temp
// file, then rename it into place (fsync-free), replacing any entry there.
func (c *Cache) storeBytes(key Key, data []byte) bool {
	tmp, err := c.writeTemp(data)
	if err == nil {
		if err = os.Rename(tmp, c.path(key)); err != nil {
			os.Remove(tmp)
		}
	}
	if err != nil {
		c.writeErrors.Add(1)
		return false
	}
	c.bytesWritten.Add(uint64(len(data)))
	c.hotPut(key, data)
	return true
}

// writeTemp writes data to a new temp file in the cache directory (same
// filesystem as the entries, so a rename or link of it is atomic) and
// returns its name.
func (c *Cache) writeTemp(data []byte) (string, error) {
	tmp, err := os.CreateTemp(c.dir, ".tmp-*")
	if err != nil {
		return "", err
	}
	// CreateTemp opens 0600; loosen to the conventional 0644 before the
	// entry is published, so entries in a shared cache directory stay
	// readable by other users' runners and daemons.
	_, werr := tmp.Write(data)
	if merr := tmp.Chmod(0o644); werr == nil {
		werr = merr
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return "", werr
	}
	return tmp.Name(), nil
}

// EntryBytes returns the raw bytes of one published entry, hot tier first
// — the daemon's GET path. Corrupt disk entries are deleted and reported
// as absent, exactly like load, so a torn or damaged file can never be
// served to a remote reader; hot-tier bytes were valid entries at admission
// and are immutable after.
func (c *Cache) EntryBytes(key Key) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	if data, ok := c.hotGet(key); ok {
		return data, true
	}
	p := c.path(key)
	data, err := os.ReadFile(p)
	if err != nil {
		return nil, false
	}
	if !validEntry(data) {
		os.Remove(p)
		return nil, false
	}
	c.hotPut(key, data)
	return data, true
}

// Prefetch pulls a wave of entries from the remote tier in one batch
// round trip, ahead of the individual lookups that will want them. Keys
// already resident (hot tier or directory) are skipped; fetched entries
// are published through the normal atomic path, so they land identically
// to a write-through from loadRemote, and every later lookup for them is
// a local hit instead of a remote round trip. Only the keys asked of the
// remote are stored: any other entry in its answer counts as a remote
// error, so an answer cannot overwrite a resident entry on disk behind the
// hot tier's back. With a nil cache or no remote at all Prefetch is a
// no-op, so callers fire it unconditionally before a fan-out.
func (c *Cache) Prefetch(keys []Key) {
	if c == nil || c.remote == nil || len(keys) == 0 {
		return
	}
	asked := make(map[Key]bool, len(keys)) // every key seen; true if asked of the remote
	need := make([]Key, 0, len(keys))
	for _, k := range keys {
		if _, dup := asked[k]; dup {
			continue
		}
		asked[k] = false
		if _, ok := c.hotGet(k); ok {
			continue
		}
		if _, err := os.Stat(c.path(k)); err == nil {
			continue
		}
		asked[k] = true
		need = append(need, k)
	}
	if len(need) == 0 {
		return
	}
	entries, err := c.remote.GetBatch(need)
	if err != nil {
		c.remoteErrors.Add(1)
		return
	}
	for k, data := range entries {
		if !asked[k] || !validEntry(data) {
			c.remoteErrors.Add(1)
			continue
		}
		if c.storeBytes(k, data) {
			c.prefetched.Add(1)
			c.bytesRead.Add(uint64(len(data)))
		}
	}
}

// ErrConflict is PublishEntry's answer to bytes that differ from the entry
// the key already holds. Keys name configs, not bytes, so such a publish
// is a forgery or a nondeterministic model; either way the held entry
// stays.
var ErrConflict = errors.New("expcache: key already holds a different entry")

// ErrInvalidEntry is PublishEntry's answer to bytes that are not a valid
// entry: the supplier's fault, unlike a publish that fails in the store.
var ErrInvalidEntry = errors.New("expcache: entry is not a JSON object")

// PublishEntry publishes externally supplied entry bytes — the daemon's
// PUT path — under a key that holds no entry yet. The bytes must be a JSON
// object (the invariant every local writer maintains); anything else is
// ErrInvalidEntry, rejected before touching the directory. The held bytes
// again are accepted and change nothing; different bytes are ErrConflict.
// A file that is not a valid entry does not count as held: it is removed
// and replaced, as load heals it. The temp file is hard-linked into place,
// which fails if the entry exists, so of two racing publishers one wins
// and the other is compared against it.
func (c *Cache) PublishEntry(key Key, data []byte) error {
	if c == nil {
		return errors.New("expcache: cache disabled")
	}
	if !validEntry(data) {
		return fmt.Errorf("%w: %s", ErrInvalidEntry, key.Hex())
	}
	if held, ok := c.EntryBytes(key); ok {
		return sameEntry(key, held, data)
	}
	tmp, err := c.writeTemp(data)
	if err == nil {
		err = os.Link(tmp, c.path(key))
		os.Remove(tmp)
	}
	if err != nil {
		if held, ok := c.EntryBytes(key); ok && errors.Is(err, fs.ErrExist) {
			return sameEntry(key, held, data)
		}
		c.writeErrors.Add(1)
		return fmt.Errorf("expcache: entry %s: publish failed", key.Hex())
	}
	c.bytesWritten.Add(uint64(len(data)))
	c.hotPut(key, data)
	return nil
}

// sameEntry is nil if data is held, the bytes key holds, and ErrConflict
// otherwise.
func sameEntry(key Key, held, data []byte) error {
	if bytes.Equal(held, data) {
		return nil
	}
	return fmt.Errorf("%w: %s", ErrConflict, key.Hex())
}

// validEntry reports whether data is a well-formed entry: one JSON object.
// Every value the cache holds is a result struct. The check refuses in
// particular the literal null, which passes json.Valid and which
// json.Unmarshal decodes into any result as its zero value without error.
func validEntry(data []byte) bool {
	data = bytes.TrimLeft(data, " \t\r\n")
	return len(data) > 0 && data[0] == '{' && json.Valid(data)
}
