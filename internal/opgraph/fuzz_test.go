package opgraph_test

import (
	"bytes"
	"testing"

	"macrochip/internal/opgraph"
)

// FuzzLoadJSON feeds arbitrary bytes to the graph loader, which reads
// user-supplied files (cmd/inference -graph-json). Every input must either
// be rejected with an error or load a graph that Validate accepts on the
// same grid; none may panic.
func FuzzLoadJSON(f *testing.F) {
	f.Add([]byte(loadJSONAccept))
	for _, tc := range loadJSONReject {
		f.Add([]byte(tc.src))
	}
	grid := testGrid()
	f.Fuzz(func(t *testing.T, src []byte) {
		g, err := opgraph.LoadJSON(bytes.NewReader(src), grid)
		if err != nil {
			if g != nil {
				t.Fatalf("LoadJSON returned a graph along with error %v", err)
			}
			return
		}
		if err := g.Validate(grid); err != nil {
			t.Fatalf("LoadJSON accepted a graph Validate rejects: %v", err)
		}
	})
}
