package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestRejectsBadWorkloadFlags runs the built command: a locality outside
// [0,1] and a non-finite or non-positive offered load must end in an
// error exit that names the flag's value — not a panic, and not a run
// that quietly offers no traffic.
func TestRejectsBadWorkloadFlags(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	bin := filepath.Join(t.TempDir(), "sornsim")
	if out, err := exec.Command(goTool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	small := []string{"-n", "16", "-nc", "4", "-warmup", "50", "-slots", "200", "-backlog", "16"}
	for _, c := range []struct {
		args []string
		want string // in stderr; "" means the run must succeed
	}{
		{[]string{"-x", "1.5"}, "locality 1.5 outside [0,1]"},
		{[]string{"-x", "NaN"}, "locality NaN outside [0,1]"},
		{[]string{"-x", "-0.2", "-mode", "avail"}, "locality -0.2 outside [0,1]"},
		{[]string{"-mode", "openloop", "-load", "NaN"}, "load must be positive and finite, got NaN"},
		{[]string{"-mode", "openloop", "-load", "+Inf"}, "load must be positive and finite, got +Inf"},
		{[]string{"-mode", "openloop", "-load", "0"}, "load must be positive and finite"},
		{[]string{"-mode", "openloop", "-load", "-1"}, "load must be positive and finite"},
		{[]string{"-mode", "avail", "-load", "NaN"}, "load must be positive and finite, got NaN"},
		{[]string{"-mode", "openloop", "-load", "0.2"}, ""},
	} {
		name := strings.Join(c.args, " ")
		var stderr bytes.Buffer
		cmd := exec.Command(bin, append(append([]string{}, small...), c.args...)...)
		cmd.Stderr = &stderr
		err := cmd.Run()
		if strings.Contains(stderr.String(), "panic") {
			t.Errorf("%s: panicked:\n%s", name, stderr.String())
			continue
		}
		if c.want == "" {
			if err != nil {
				t.Errorf("%s: %v\n%s", name, err, stderr.String())
			}
			continue
		}
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() == 0 {
			t.Errorf("%s: err = %v, want a non-zero exit", name, err)
		}
		if !strings.Contains(stderr.String(), c.want) {
			t.Errorf("%s: stderr %q does not mention %q", name, stderr.String(), c.want)
		}
	}
}
