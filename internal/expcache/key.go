package expcache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// Key is the content address of one cached experiment point: a SHA-256 over
// a canonical serialization of everything that determines the point's
// result plus a model-version salt. The caller owns the serialization (the
// harness hashes each cell's wire spec); two points agree on a Key only if
// they hashed the same bytes, so results can never be served across
// semantically different simulations, and bumping the salt makes every
// earlier entry unreachable.
type Key [sha256.Size]byte

// Hex returns the key as a lowercase hex string (the cache filename stem).
func (k Key) Hex() string { return hex.EncodeToString(k[:]) }

// ParseKey inverts Hex: it accepts exactly a 64-character hex string. It is
// the validation gate for externally supplied keys (the daemon's cache
// entry routes), so a malformed or truncated key can never reach the
// filesystem layer.
func ParseKey(s string) (Key, error) {
	var k Key
	if len(s) != hex.EncodedLen(len(k)) {
		return Key{}, fmt.Errorf("expcache: key %q: want %d hex chars, got %d", s, hex.EncodedLen(len(k)), len(s))
	}
	if _, err := hex.Decode(k[:], []byte(s)); err != nil {
		return Key{}, fmt.Errorf("expcache: key %q: %w", s, err)
	}
	return k, nil
}
