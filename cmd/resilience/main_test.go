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

// TestFlagOutOfBounds: a -rates, -load or -mttr value outside the
// daemon's bounds exits 1 with the daemon's wording, before any simulation
// starts.
func TestFlagOutOfBounds(t *testing.T) {
	for _, tc := range []struct{ flag, value, want string }{
		{"-rates", "2000", "fault rate 2000 outside [0, 1000] per site per ms"},
		{"-rates", "-1", "fault rate -1 outside [0, 1000] per site per ms"},
		{"-load", "-0.3", "load -0.3 outside [0, 1]"},
		{"-load", "1.5", "load 1.5 outside [0, 1]"},
		{"-load", "NaN", "load NaN outside [0, 1]"},
		{"-mttr", "-5", "negative MTTR"},
	} {
		cmd := exec.Command(os.Args[0], "-quick", "-no-cache", "-networks", "point-to-point",
			"-classes", "dark-laser", tc.flag, tc.value)
		cmd.Env = append(os.Environ(), "RESILIENCE_TEST_MAIN=1")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 || string(out) != "resilience: "+tc.want+"\n" {
			t.Errorf("resilience %s %s: %v\n%s", tc.flag, tc.value, err, out)
		}
	}
}
