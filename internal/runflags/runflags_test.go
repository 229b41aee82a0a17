package runflags

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"macrochip/internal/networks"
)

// parse registers every part on a fresh flag set, parses args and
// captures the plain output lines in out.
func parse(t *testing.T, out *bytes.Buffer, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs, "test", Fleet|Profile)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	f.out = out
	return f
}

// TestStartCache pins the cache rule: -no-cache and an empty -cache-dir
// run uncached, a directory opens, and one that cannot be opened warns
// and runs uncached.
func TestStartCache(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		args    []string
		wantDir string
		warn    string
	}{
		{"no-cache", []string{"-no-cache", "-cache-dir", dir}, "", ""},
		{"empty dir", []string{"-cache-dir", ""}, "", ""},
		{"dir", []string{"-cache-dir", dir}, dir, ""},
		{"unopenable", []string{"-cache-dir", filepath.Join(file, "cache")}, "", "test: cache disabled: "},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			r, finish, err := parse(t, &out, tc.args...).Start(1, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer finish()
			if got := r.Cache.Dir(); got != tc.wantDir {
				t.Errorf("cache dir = %q, want %q", got, tc.wantDir)
			}
			if !strings.HasPrefix(out.String(), tc.warn) || (tc.warn == "") != (out.Len() == 0) {
				t.Errorf("output %q, want a line starting %q", out.String(), tc.warn)
			}
		})
	}
}

// TestWorkerArgs spawns a stand-in worker that records its arguments:
// spawned workers inherit -cache-dir (or -no-cache), -cache-url and
// -dist-depth.
func TestWorkerArgs(t *testing.T) {
	dir := t.TempDir()
	for i, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-cache-dir", dir, "-cache-url", "http://127.0.0.1:1", "-dist-depth", "3"},
			"-worker -cache-dir " + dir + " -cache-url http://127.0.0.1:1 -dist-depth 3"},
		{[]string{"-no-cache"}, "-worker -no-cache -dist-depth 8"},
	} {
		got := filepath.Join(dir, "args"+strconv.Itoa(i))
		worker := filepath.Join(dir, "worker"+strconv.Itoa(i))
		script := "#!/bin/sh\necho \"$@\" > " + got + ".tmp\nmv " + got + ".tmp " + got + "\nexec cat\n"
		if err := os.WriteFile(worker, []byte(script), 0o755); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		_, finish, err := parse(t, &out, append(tc.args, "-dist-workers", "1", "-dist-exec", worker)...).Start(1, nil)
		if err != nil {
			t.Fatal(err)
		}
		var data []byte
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
			if data, err = os.ReadFile(got); err == nil {
				break
			}
		}
		finish()
		if s := strings.TrimSpace(string(data)); s != tc.want {
			t.Errorf("worker args = %q, want %q", s, tc.want)
		}
	}
}

// TestFinish checks the function a command defers: it writes non-empty
// CPU and heap profiles and prints the cache summary, then the dist
// summary, each under the command's prefix.
func TestFinish(t *testing.T) {
	dir := t.TempDir()
	cpu, heap := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "heap.out")
	var out bytes.Buffer
	f := parse(t, &out, "-cache-dir", dir, "-dist-addr", "127.0.0.1:0", "-cpuprofile", cpu, "-memprofile", heap)
	r, finish, err := f.Start(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cache == nil || r.Dist == nil {
		t.Fatalf("runner = %+v, want a cache and a fleet", r)
	}
	finish()
	for _, p := range []string{cpu, heap} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Errorf("profile %s: %v, want a non-empty file", p, err)
		}
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "test: result cache "+dir+": ") || !strings.HasPrefix(lines[1], "test: dist: ") {
		t.Errorf("summaries = %q, want the cache line, then the dist line", out.String())
	}
}

func TestList(t *testing.T) {
	if got := Split(" a, ,b,"); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("Split drops blanks: got %q", got)
	}
	if got := Split(" , "); got != nil {
		t.Errorf("Split of blanks = %q, want nil", got)
	}
	kinds, err := List("point-to-point,, two-phase-alt,", Network)
	if want := []networks.Kind{networks.PointToPoint, networks.TwoPhaseALT}; err != nil || !reflect.DeepEqual(kinds, want) {
		t.Errorf("List networks = %v, %v; want %v", kinds, err, want)
	}
	if _, err := List("point-to-point,foo", Network); err == nil || !strings.Contains(err.Error(), `unknown network "foo"`) {
		t.Errorf("unknown network: err = %v", err)
	}
	if ints, err := List("1,,8", strconv.Atoi); err != nil || !reflect.DeepEqual(ints, []int{1, 8}) {
		t.Errorf("List ints = %v, %v", ints, err)
	}
}
