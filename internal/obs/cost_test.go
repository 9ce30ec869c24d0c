package obs

import (
	"bytes"
	"context"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// TestCostFlagLifecycle drives the -cost flag: Activate starts the profile
// and tracing, spans label their goroutine with their path, a second
// Activate while the profile runs fails, and Flush (twice) leaves one
// non-empty gzipped profile behind.
func TestCostFlagLifecycle(t *testing.T) {
	StopCost()
	DisableTracing()
	defer func() {
		StopCost()
		DisableTracing()
	}()

	dir := t.TempDir()
	costPath := filepath.Join(dir, "cost.pprof")
	f := &Flags{CostPath: costPath}
	flush, err := f.Activate()
	if err != nil {
		t.Fatalf("Activate: %v", err)
	}
	if !CostEnabled() || Tracing() == nil {
		t.Fatal("-cost must start the profile and enable tracing")
	}

	ctx, root := Start(context.Background(), "lifecycle")
	cctx, child := Start(ctx, "lifecycle.child")
	if got, _ := pprof.Label(cctx, CostLabelKey); got != "lifecycle/lifecycle.child" {
		t.Errorf("child span label = %q, want lifecycle/lifecycle.child", got)
	}
	child.End()
	root.End()

	second := &Flags{CostPath: filepath.Join(dir, "second.pprof")}
	if _, err := second.Activate(); err == nil {
		t.Error("second -cost Activate succeeded while the first profile runs")
	}

	flush()
	flush()
	if CostEnabled() {
		t.Error("Flush left the cost profile running")
	}
	data, err := os.ReadFile(costPath)
	if err != nil {
		t.Fatalf("cost profile: %v", err)
	}
	if !bytes.HasPrefix(data, []byte{0x1f, 0x8b}) {
		t.Errorf("cost profile is not gzipped (%d bytes)", len(data))
	}
}

// TestCostSurvivesTracerReset: ResetTracing (cryobench calls it between
// repetitions) swaps the tracer but must leave the -cost profile running,
// and spans started on the fresh tracer still label their goroutine.
func TestCostSurvivesTracerReset(t *testing.T) {
	StopCost()
	DisableTracing()
	defer func() {
		StopCost()
		DisableTracing()
	}()
	if err := EnableCost(io.Discard); err != nil {
		t.Fatalf("EnableCost: %v", err)
	}

	_, s1 := Start(context.Background(), "rep")
	s1.End()
	ResetTracing()
	if !CostEnabled() {
		t.Fatal("ResetTracing stopped the cost profile")
	}
	ctx, s2 := Start(context.Background(), "rep")
	if got, _ := pprof.Label(ctx, CostLabelKey); got != "rep" {
		t.Errorf("span after ResetTracing labelled %q, want rep", got)
	}
	s2.End()
}

// burnCPU spins for roughly d so the 100 Hz CPU profiler can land samples
// on the calling goroutine's current labels.
func burnCPU(d time.Duration) {
	deadline := time.Now().Add(d)
	x := 1.0
	for time.Now().Before(deadline) {
		for i := 0; i < 10000; i++ {
			x = x*1.000001 + 1
		}
	}
	_ = x
}

// TestProfileCPUByLabelReal records a real -cost profile while a nested
// span burns CPU and checks go tool pprof -tags reads the CPU back under
// that span's path.
func TestProfileCPUByLabelReal(t *testing.T) {
	StopCost()
	DisableTracing()
	defer func() {
		StopCost()
		DisableTracing()
	}()
	var buf bytes.Buffer
	if err := EnableCost(&buf); err != nil {
		t.Fatalf("EnableCost: %v", err)
	}
	ctx, root := Start(context.Background(), "real")
	_, burn := Start(ctx, "burn")
	burnCPU(500 * time.Millisecond)
	burn.End()
	root.End()
	StopCost()

	path := filepath.Join(t.TempDir(), "cost.pprof")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	goBin := filepath.Join(runtime.GOROOT(), "bin", "go")
	out, err := exec.Command(goBin, "tool", "pprof", "-tags", path).CombinedOutput()
	if err != nil {
		t.Fatalf("go tool pprof -tags: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "real/burn") {
		t.Errorf("no CPU attributed to span real/burn:\n%s", out)
	}
}
