package harness

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"macrochip/internal/expcache"
	"macrochip/internal/networks"
)

// buildMacrosim compiles the real worker binary into a temp dir so the
// subprocess tests exercise the exact production transport (stdin/stdout
// pipes, SIGTERM handling, atomic cache publishes).
func buildMacrosim(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("subprocess test skipped in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "macrosim")
	cmd := exec.Command("go", "build", "-o", bin, "macrochip/cmd/macrosim")
	cmd.Dir = moduleRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building macrosim: %v\n%s", err, out)
	}
	return bin
}

// moduleRoot walks up from the package directory to the go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above package dir")
		}
		dir = parent
	}
}

// TestDistKillWorkerMidSweep is the kill-mid-sweep regression, run with the
// full pipeline: each worker advertises a depth-8 credit window, so the
// SIGKILL lands on a process holding several unanswered cells at once, not
// one. It proves that (a) the sweep's CSV is still byte-identical to
// serial, (b) no cell was lost or run to two different answers, and (c)
// the shared cache holds no torn entry — every published *.json is
// complete, valid JSON (orphaned temp files are allowed; readers never see
// them because publication is a rename).
func TestDistKillWorkerMidSweep(t *testing.T) {
	bin := buildMacrosim(t)
	cacheDir := filepath.Join(t.TempDir(), "cache")

	cfg := quickCfg()
	loads := []float64{0.005, 0.01, 0.015, 0.02, 0.025, 0.03, 0.035, 0.04}
	kinds := []networks.Kind{networks.PointToPoint}
	render := func(r Runner) string {
		panel, err := Figure6PanelWith(r, cfg, "uniform", kinds, loads)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := WriteFigure6CSV(&b, panel); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	serial := render(Serial)

	c, err := NewCoordinator(CoordinatorConfig{
		Workers:     2,
		Exec:        bin,
		Args:        []string{"-cache-dir", cacheDir, "-dist-depth", "8"},
		MaxDepth:    8,
		CellTimeout: 30 * time.Second,
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.AwaitWorkers(2, 30*time.Second); err != nil {
		t.Fatal(err)
	}

	// The assassin waits for the fleet to be mid-sweep — at least one cell
	// completed, so workers are demonstrably holding work — then SIGKILLs
	// one worker process outright (no SIGTERM grace, no drain).
	killed := make(chan int, 1)
	go func() {
		deadline := time.Now().Add(60 * time.Second)
		for time.Now().Before(deadline) {
			if c.Stats().Completed >= 1 {
				if pids := c.WorkerPIDs(); len(pids) > 0 {
					syscall.Kill(pids[0], syscall.SIGKILL) //nolint:errcheck // racing natural exit is fine
					killed <- pids[0]
					return
				}
			}
			time.Sleep(2 * time.Millisecond)
		}
		killed <- 0
	}()

	cache, err := expcache.Open(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	got := render(Runner{Cache: cache, Dist: c})
	pid := <-killed

	if got != serial {
		t.Errorf("CSV after mid-sweep SIGKILL differs from serial\nserial:\n%s\ngot:\n%s", serial, got)
	}
	if pid == 0 {
		t.Log("sweep finished before the assassin fired; identity still holds")
	} else {
		t.Logf("killed worker pid %d mid-sweep; stats: %+v", pid, c.Stats())
	}

	// No torn entries: everything published under the cache dir must be
	// complete JSON. A crash mid-write may orphan a temp file, but the
	// rename barrier means no *.json can ever be partial.
	entries, err := filepath.Glob(filepath.Join(cacheDir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no cache entries published; expected the sweep to fill the cache")
	}
	for _, path := range entries {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("reading %s: %v", path, err)
			continue
		}
		if !json.Valid(data) {
			t.Errorf("torn cache entry %s: %d bytes of invalid JSON", path, len(data))
		}
	}
}
