package expcache

// Remote is a second, shared cache tier behind the local directory: the
// rendezvous store of a distributed sweep. The local directory is always
// consulted first; on a local miss the cache asks the remote, and a remote
// hit is written through to the local directory byte-for-byte so the entry
// is served locally from then on. Local misses that compute are published
// to the remote as well, so every participant in a sweep converges on the
// same entry set.
//
// Implementations must be safe for concurrent use. Errors are advisory:
// the cache counts them (Stats.RemoteErrors) and falls back to local
// compute, so a dead or unreachable remote degrades a sweep, never breaks
// it.
type Remote interface {
	// Get fetches the entry bytes for key. ok=false with a nil error is a
	// clean miss; an error means the remote could not answer.
	Get(key Key) (data []byte, ok bool, err error)
	// GetBatch answers many keys in one round trip — the transport behind
	// Cache.Prefetch. It returns whichever of the requested entries the
	// remote has (absent keys are simply missing from the map — a partial
	// answer is not an error); an error means the batch as a whole could
	// not be served.
	GetBatch(keys []Key) (map[Key][]byte, error)
	// Put publishes the entry bytes for key. Publishing the same key twice
	// must be harmless (entries are content-addressed: same key, same
	// bytes).
	Put(key Key, data []byte) error
}

// SetRemote attaches (or, with nil, detaches) the remote tier. Call before
// the cache is shared across goroutines — typically right after Open,
// during flag wiring. A nil *Cache ignores the call.
func (c *Cache) SetRemote(r Remote) {
	if c == nil {
		return
	}
	c.remote = r
}
