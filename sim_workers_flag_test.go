package repro_test

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestNegativeSimJRejected: earthrun, earthd and paperbench refuse a
// negative -sim-j with exit status 2 and a one-line message naming the
// flag, before doing any work.
func TestNegativeSimJRejected(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go command not available")
	}
	dir := t.TempDir()
	build := exec.Command(goBin, "build", "-o", dir, "./cmd/earthrun", "./cmd/earthd", "./cmd/paperbench")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, c := range []struct {
		name string
		args []string
	}{
		{"earthrun", []string{"-sim-j", "-1", "prog.ec"}},
		{"earthd", []string{"-sim-j", "-1", "-addr", "127.0.0.1:0"}},
		{"paperbench", []string{"-sim-j", "-3", "-table2"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(filepath.Join(dir, c.name), c.args...)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("want exit status 2, got %v (stderr %q)", err, stderr.String())
			}
			msg := stderr.String()
			if strings.Count(msg, "\n") != 1 || !strings.HasPrefix(msg, c.name+": -sim-j must be ≥ 0") {
				t.Errorf("want one line naming -sim-j, got %q", msg)
			}
			if stdout.Len() != 0 {
				t.Errorf("rejected run wrote to stdout: %q", stdout.String())
			}
		})
	}
}
