package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestTraceFileBeyondAddressSpaceFails builds vcsim and replays a trace
// file whose only load has a lane beyond the modeled 48-bit virtual
// address space: the run must exit non-zero and say why.
func TestTraceFileBeyondAddressSpaceFails(t *testing.T) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command to build vcsim with")
	}
	bin := filepath.Join(t.TempDir(), "vcsim")
	if out, err := exec.Command(gobin, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	fixture := filepath.Join("..", "..", "internal", "trace", "testdata", "wide-lane.v4")
	var stderr bytes.Buffer
	cmd := exec.Command(bin, "-tracefile", fixture, "-design", "ideal,baseline-512", "-no-cache")
	cmd.Stderr = &stderr
	err = cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Fatalf("vcsim -tracefile on a wide lane: %v, want a non-zero exit", err)
	}
	if !strings.Contains(stderr.String(), "beyond the 48-bit virtual address space") {
		t.Fatalf("stderr does not name the wide address:\n%s", stderr.String())
	}
}
