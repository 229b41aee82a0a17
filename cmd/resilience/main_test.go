package main

import (
	"errors"
	"os"
	"os/exec"
	"testing"
)

// TestMain runs the command itself when the test binary is re-executed
// with RESILIENCE_TEST_MAIN set, so a test can check its exit status and
// output.
func TestMain(m *testing.M) {
	if os.Getenv("RESILIENCE_TEST_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRateOutOfBounds: a -rates value outside [0, harness.MaxFaultRate]
// exits 1 with an error naming the bound, before any simulation starts.
func TestRateOutOfBounds(t *testing.T) {
	for _, rate := range []string{"2000", "-1"} {
		cmd := exec.Command(os.Args[0], "-quick", "-no-cache", "-networks", "point-to-point",
			"-classes", "dark-laser", "-rates", rate)
		cmd.Env = append(os.Environ(), "RESILIENCE_TEST_MAIN=1")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		want := "resilience: fault rate " + rate + " outside [0, 1000] per site per ms\n"
		if !errors.As(err, &exit) || exit.ExitCode() != 1 || string(out) != want {
			t.Errorf("resilience -rates %s: %v\n%s", rate, err, out)
		}
	}
}
