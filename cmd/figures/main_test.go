package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the command itself when the test binary is re-executed
// with FIGURES_TEST_MAIN set, so a test can check its exit status and
// output.
func TestMain(m *testing.M) {
	if os.Getenv("FIGURES_TEST_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestUnknownNetwork: an unknown -networks name exits 1 with the error
// resilience and inference print, before any simulation starts.
func TestUnknownNetwork(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-fig", "6", "-quick", "-no-cache", "-patterns", "uniform", "-networks", "foo")
	cmd.Env = append(os.Environ(), "FIGURES_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.HasPrefix(string(out), `figures: unknown network "foo" (have [`) {
		t.Fatalf("figures -networks foo: %v\n%s", err, out)
	}
}
