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
// full pipeline: each worker advertises a depth-8 credit window and the
// grid is three windows wide (24 cells for two workers), so the SIGKILL
// lands on processes holding several unanswered cells at once, with more
// still queued. It proves that (a) the held cells were reassigned, (b) the
// sweep's CSV is still byte-identical to serial, so no cell was lost or
// run to two different answers, and (c) the shared cache holds no torn
// entry — every published *.json is complete, valid JSON (orphaned temp
// files are allowed; readers never see them because publication is a
// rename).
func TestDistKillWorkerMidSweep(t *testing.T) {
	bin := buildMacrosim(t)
	cacheDir := filepath.Join(t.TempDir(), "cache")

	cfg := quickCfg()
	var loads []float64
	for i := 1; i <= 24; i++ {
		loads = append(loads, float64(i)/200)
	}
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
		Seed:        7,
		cellTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.AwaitWorkers(2, 30*time.Second); err != nil {
		t.Fatal(err)
	}

	// The assassin waits until the fleet holds at least two unanswered
	// cells, then SIGKILLs every worker process outright (no SIGTERM grace,
	// no drain). The slots respawn and the held cells are reassigned.
	killed := make(chan []int, 1)
	done := make(chan struct{})
	go func() {
		for {
			held := 0
			for _, w := range c.Stats().Workers {
				held += w.InFlight
			}
			if pids := c.WorkerPIDs(); held >= 2 && len(pids) > 0 {
				for _, pid := range pids {
					syscall.Kill(pid, syscall.SIGKILL) //nolint:errcheck // racing natural exit is fine
				}
				killed <- pids
				return
			}
			select {
			case <-done:
				killed <- nil
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()

	cache, err := expcache.Open(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	got := render(Runner{Cache: cache, Dist: c})
	close(done)
	pids := <-killed

	if pids == nil {
		t.Fatal("sweep finished before the fleet held two cells; the assassin never fired")
	}
	st := c.Stats()
	t.Logf("killed worker pids %v mid-sweep; stats: %+v", pids, st)
	if st.Retried < 1 {
		t.Errorf("Retried = %d after killing workers that held cells, want ≥ 1", st.Retried)
	}
	if got != serial {
		t.Errorf("CSV after mid-sweep SIGKILL differs from serial\nserial:\n%s\ngot:\n%s", serial, got)
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
