package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestHelperProcess runs main with the arguments after "--" when the test
// binary is re-executed by runCryoobs; in a normal test run it returns.
func TestHelperProcess(t *testing.T) {
	if os.Getenv("CRYOOBS_HELPER") != "1" {
		return
	}
	args := os.Args
	for i, a := range args {
		if a == "--" {
			args = args[i+1:]
			break
		}
	}
	os.Args = append([]string{"cryoobs"}, args...)
	main()
	os.Exit(0)
}

// runCryoobs runs cryoobs with args in a child process and returns its
// exit code and stdout.
func runCryoobs(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^TestHelperProcess$", "--"}, args...)...)
	cmd.Env = append(os.Environ(), "CRYOOBS_HELPER=1")
	out, err := cmd.Output()
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode(), string(out)
	}
	if err != nil {
		t.Fatalf("cryoobs %v: %v", args, err)
	}
	return 0, string(out)
}

// TestErrorExitEndsJournal: a subcommand that fails still flushes its own
// -journal, so the run is summarized as finished rather than truncated.
func TestErrorExitEndsJournal(t *testing.T) {
	dir := t.TempDir()
	j := filepath.Join(dir, "j.jsonl")
	if code, _ := runCryoobs(t, "report", "-journal", j, filepath.Join(dir, "missing.jsonl")); code != 2 {
		t.Fatalf("report over a missing journal exited %d, want 2", code)
	}
	code, out := runCryoobs(t, "summary", j)
	if code != 0 {
		t.Fatalf("summary exited %d:\n%s", code, out)
	}
	if f := strings.Fields(out); len(f) < 3 || f[1] != "cryoobs" || f[2] != "ok" {
		t.Errorf("failed report run not ended in its journal:\n%s", out)
	}
}
