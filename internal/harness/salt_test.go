package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// saltedGoldens pins ModelSalt to a digest of the committed golden files
// (see goldenDigest). Regenerating a golden with -update changes the digest,
// and this pin then fails until the salt moves with it: bump ModelSalt and
// record the new salt and digest here in the same change, so no cache tier
// keeps serving results computed by the old model.
var saltedGoldens = struct{ salt, digest string }{
	"macrochip-sim-v5", "92285fa08bfcc4660bd38a115da9a0f56518b95af3e01a70c81acc770f302b28",
}

// goldenDigest is the SHA-256 over every testdata/*.golden file in name
// order, each framed by its name and length.
func goldenDigest(t *testing.T) string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "*.golden"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no golden files found (%v)", err)
	}
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d\n", filepath.Base(p), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestModelSaltPinsGoldens(t *testing.T) {
	digest := goldenDigest(t)
	if ModelSalt != saltedGoldens.salt || digest != saltedGoldens.digest {
		t.Fatalf("ModelSalt %q with golden digest %s; pinned pair is %q with %s.\n"+
			"The golden files and the salt must change together: a changed golden means the model's output "+
			"changed, so bump ModelSalt and record the new salt and digest in saltedGoldens.",
			ModelSalt, digest, saltedGoldens.salt, saltedGoldens.digest)
	}
}
