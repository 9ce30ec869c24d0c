package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestJournalRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf, "r-test")
	j.Event(KindRunStart, "", "cryochar -temp 4", map[string]string{"bin": "cryochar"})
	j.Event(KindWarning, "charlib.cell", "slow arc", map[string]string{"cell": "NAND2x1"})
	j.Failure("charlib.arc", "did not converge", map[string]string{
		"cell": "NAND2x1", "arc": "A->Y", "slew": "5e-12", "load": "4e-16", "temp_k": "4",
	}, map[string]any{"worst_node": "dut.__t1", "residual": 1.5e-9})
	j.Event(KindRunEnd, "", "", nil)
	if err := j.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	events, err := ReadJournal(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(events) != 4 {
		t.Fatalf("got %d events, want 4", len(events))
	}
	for i, e := range events {
		if e.Run != "r-test" {
			t.Errorf("event %d run = %q", i, e.Run)
		}
		if e.Seq != uint64(i+1) {
			t.Errorf("event %d seq = %d, want %d (monotonic)", i, e.Seq, i+1)
		}
		if e.TNs == 0 {
			t.Errorf("event %d has no timestamp", i)
		}
	}
	fail := events[2]
	if fail.Kind != KindFailure || fail.Attrs["arc"] != "A->Y" {
		t.Errorf("failure event mangled: %+v", fail)
	}
	var detail struct {
		WorstNode string  `json:"worst_node"`
		Residual  float64 `json:"residual"`
	}
	if err := json.Unmarshal(fail.Detail, &detail); err != nil {
		t.Fatalf("detail: %v", err)
	}
	if detail.WorstNode != "dut.__t1" || detail.Residual != 1.5e-9 {
		t.Errorf("detail round-trip: %+v", detail)
	}
}

func TestJournalNilSafe(t *testing.T) {
	var j *Journal
	j.Event("k", "s", "m", nil)
	j.Failure("s", "m", nil, nil)
	j.Artifact("s", "nope")
	if j.RunID() != "" {
		t.Error("nil RunID")
	}
	if err := j.Sync(); err != nil {
		t.Error(err)
	}
	if err := j.Close(); err != nil {
		t.Error(err)
	}
}

// TestJournalTruncatedTail proves a torn final line (crashed writer) is
// dropped without error, while mid-file corruption is reported.
func TestJournalTruncatedTail(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf, "r-torn")
	j.Event("a", "", "", nil)
	j.Event("b", "", "", nil)
	j.Close()
	full := buf.String()

	// Cut the stream mid-way through the last line.
	torn := full[:len(full)-10]
	events, err := ReadJournal(strings.NewReader(torn))
	if err != nil {
		t.Fatalf("torn tail must be tolerated: %v", err)
	}
	if len(events) != 1 || events[0].Kind != "a" {
		t.Fatalf("got %d events (%v), want just the first", len(events), events)
	}

	// Corruption followed by a valid line is a real error.
	corrupt := "{\"seq\":1,\"run\":\"x\",\"kind\":\"a\"\nnot json at all\n" + full
	if _, err := ReadJournal(strings.NewReader(corrupt)); err == nil {
		t.Fatal("mid-file corruption must be an error")
	}
}

func TestJournalFileAndArtifact(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.jsonl")
	artifact := filepath.Join(dir, "out.lib")
	if err := os.WriteFile(artifact, []byte("library payload"), 0o644); err != nil {
		t.Fatal(err)
	}

	defer DisableJournal()
	DisableJournal() // ensure no stale global
	j, err := EnableJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := SetJournal(j); got != j {
		t.Fatal("SetJournal did not return installed journal")
	}
	if !JournalEnabled() || J() != j {
		t.Fatal("global journal not installed")
	}
	if !strings.HasPrefix(j.RunID(), "r-") {
		t.Errorf("run id %q", j.RunID())
	}
	j.Artifact("test", artifact)
	j.Artifact("test", filepath.Join(dir, "missing"))
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}

	events, err := ReadJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("got %d events, want artifact + warning", len(events))
	}
	art := events[0]
	if art.Kind != KindArtifact || art.Attrs["bytes"] != "15" || len(art.Attrs["sha256"]) != 64 {
		t.Errorf("artifact event: %+v", art)
	}
	if events[1].Kind != KindWarning {
		t.Errorf("missing artifact should warn, got %+v", events[1])
	}
}

func TestJournalConcurrentSeq(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf, "r-conc")
	var wg sync.WaitGroup
	const writers, per = 8, 50
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				j.Event("tick", "stage", "", nil)
			}
		}()
	}
	wg.Wait()
	j.Close()
	events, err := ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != writers*per {
		t.Fatalf("got %d events, want %d", len(events), writers*per)
	}
	seen := make(map[uint64]bool, len(events))
	for _, e := range events {
		if seen[e.Seq] {
			t.Fatalf("duplicate seq %d", e.Seq)
		}
		seen[e.Seq] = true
	}
}
