package expcache

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// FuzzParseKey checks the key gate of the daemon's entry routes and the
// batch answer: it never panics, and a key it accepts is the input again
// through Hex, ignoring case.
func FuzzParseKey(f *testing.F) {
	f.Add(testKey(45).Hex())
	f.Add(strings.ToUpper(testKey(46).Hex()))
	for _, bad := range parseKeyRejects {
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, s string) {
		k, err := ParseKey(s)
		if err != nil {
			return
		}
		if !strings.EqualFold(k.Hex(), s) {
			t.Fatalf("ParseKey(%q).Hex() = %q", s, k.Hex())
		}
	})
}

// FuzzBatchEnvelope checks decodeBatch, the parse of the daemon's batch
// answer ({"entries": …}): it never panics, and every entry it accepts has
// a key that parses and is valid JSON of at most maxRemoteEntry bytes.
func FuzzBatchEnvelope(f *testing.F) {
	a, b := testKey(2000).Hex(), testKey(2001).Hex()
	for _, body := range []string{
		`{"entries":{}}`,
		fmt.Sprintf(`{"entries":{%q:{"Load":0,"Mean":0}}}`, a),
		fmt.Sprintf(`{"entries":{%q:{"Load":0,"Mean":0},%q:[1,"x",null]}}`, a, b),
		fmt.Sprintf(`{"entries":{%q:null}}`, strings.ToUpper(a)),
		`{"entries":{"zz":{}}}`,
		`{"entries":[]}`,
		`{"entries":`,
		`not json`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		entries, err := decodeBatch(body)
		if err != nil {
			return
		}
		for k, data := range entries {
			if _, err := ParseKey(k.Hex()); err != nil {
				t.Fatalf("accepted key %s does not parse: %v", k.Hex(), err)
			}
			if len(data) > maxRemoteEntry || !json.Valid(data) {
				t.Fatalf("accepted entry %s is not a JSON value within %d bytes: %q", k.Hex(), maxRemoteEntry, data)
			}
		}
	})
}
