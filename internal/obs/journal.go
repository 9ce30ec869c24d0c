package obs

import (
	"bufio"
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Event is one record of the append-only run journal: the black-box flight
// recorder of a flow run. Events carry a per-process run ID, a monotonic
// sequence number, and a stage name that correlates with the span taxonomy
// ("charlib.cell", "qor.rep", ...). The journal is JSONL: one event per
// line, so a crashed process leaves at most one torn final line, which
// ReadJournal tolerates.
type Event struct {
	Seq   uint64 `json:"seq"`
	TNs   int64  `json:"t_ns"` // wall-clock time, unix nanoseconds
	Run   string `json:"run"`
	Kind  string `json:"kind"`
	Stage string `json:"stage,omitempty"`
	Msg   string `json:"msg,omitempty"`
	// Attrs are flat, greppable key/value annotations (cell, arc, slew,
	// temp_k, worst_node, ...).
	Attrs map[string]string `json:"attrs,omitempty"`
	// Detail carries a structured payload for machine consumers — e.g. a
	// full spice.Diagnosis on nonconvergence failures.
	Detail json.RawMessage `json:"detail,omitempty"`
}

// Time returns the event timestamp as a time.Time.
func (e *Event) Time() time.Time { return time.Unix(0, e.TNs) }

// Well-known event kinds. Producers may emit additional domain kinds
// (e.g. "qor.rep"); consumers must ignore kinds they do not understand.
const (
	KindRunStart = "run.start"
	// KindRunEnd closes a run; the -journal flag's flush gives it the
	// RunSummary as its detail payload.
	KindRunEnd   = "run.end"
	KindStageEnd = "stage.end"
	KindWarning  = "warning"
	KindFailure  = "failure"
	KindArtifact = "artifact"
	// KindProgress is a periodic progress heartbeat from a registered
	// stage task (done/total/rate/eta in attrs); the -progress flag's
	// reporter emits one per live task per interval.
	KindProgress = "progress"
	// KindStall is the watchdog's post-mortem of a stage that went silent
	// past its deadline; the detail payload is an obs.StallReport
	// (goroutine dump, active span stack, registry snapshot).
	KindStall = "stall"
)

// Journal is an append-only JSONL event writer. All methods are safe for
// concurrent use and nil-safe: a nil *Journal ignores every call, which is
// what J() hands out while journaling is disabled — so instrumentation
// sites need no guards and the disabled hot path is one atomic pointer
// load.
type Journal struct {
	runID string
	seq   atomic.Uint64

	mu     sync.Mutex
	w      *bufio.Writer
	c      io.Closer // nil when the journal does not own the sink
	failed bool      // first write error was logged; drop further events
	closed bool
}

var globalJournal atomic.Pointer[Journal]

// NewJournal wraps an arbitrary writer as a journal with the given run ID
// (tests and in-memory consumers). When w also implements io.Closer,
// Close closes it.
func NewJournal(w io.Writer, runID string) *Journal {
	j := &Journal{runID: runID, w: bufio.NewWriter(w)}
	if c, ok := w.(io.Closer); ok {
		j.c = c
	}
	return j
}

// NewRunID returns a fresh random run identifier ("r-<12 hex>").
func NewRunID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Fall back to a time-derived ID; uniqueness is best-effort.
		return fmt.Sprintf("r-%012x", uint64(time.Now().UnixNano())&0xffffffffffff)
	}
	return "r-" + hex.EncodeToString(b[:])
}

// EnableJournal opens (creating or truncating) the journal file at path and
// installs it as the process-global journal, keeping the current one if
// already enabled.
func EnableJournal(path string) (*Journal, error) {
	if j := globalJournal.Load(); j != nil {
		return j, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("obs: journal: %w", err)
	}
	j := NewJournal(f, NewRunID())
	if !globalJournal.CompareAndSwap(nil, j) {
		f.Close()
		os.Remove(path)
		return globalJournal.Load(), nil
	}
	return j, nil
}

// SetJournal installs j (possibly nil) as the process-global journal and
// returns the previous one. Tests use it to capture events in memory.
func SetJournal(j *Journal) *Journal {
	return globalJournal.Swap(j)
}

// DisableJournal flushes, closes, and removes the global journal.
func DisableJournal() {
	if j := globalJournal.Swap(nil); j != nil {
		j.Close()
	}
}

// J returns the global journal, or nil when journaling is disabled. All
// Journal methods are nil-safe.
func J() *Journal { return globalJournal.Load() }

// JournalEnabled reports whether a global journal is installed. Call sites
// that must assemble attributes before emitting should guard on this (or on
// J() != nil) to keep the disabled path allocation-free.
func JournalEnabled() bool { return globalJournal.Load() != nil }

// RunID returns the journal's run identifier ("" for nil).
func (j *Journal) RunID() string {
	if j == nil {
		return ""
	}
	return j.runID
}

// Event appends one journal event. kind classifies it (see the Kind
// constants), stage correlates with the span taxonomy, and attrs may be
// nil.
func (j *Journal) Event(kind, stage, msg string, attrs map[string]string) {
	j.emit(kind, stage, msg, attrs, nil)
}

// EventDetail appends an event with a structured detail payload, which is
// marshalled to JSON.
func (j *Journal) EventDetail(kind, stage, msg string, attrs map[string]string, detail any) {
	j.emit(kind, stage, msg, attrs, detail)
}

// Warning appends a warning event.
func (j *Journal) Warning(stage, msg string, attrs map[string]string) {
	j.emit(KindWarning, stage, msg, attrs, nil)
}

// Failure appends a failure event, optionally carrying a structured
// diagnosis in detail.
func (j *Journal) Failure(stage, msg string, attrs map[string]string, detail any) {
	j.emit(KindFailure, stage, msg, attrs, detail)
}

// StageEnd appends a stage.end event recording the stage's wall time.
func (j *Journal) StageEnd(stage string, seconds float64) {
	if j == nil {
		return
	}
	j.emit(KindStageEnd, stage, "", map[string]string{
		"seconds": strconv.FormatFloat(seconds, 'g', 6, 64),
	}, nil)
}

// Artifact appends a provenance event for a produced file: its path,
// SHA-256, and size. Unreadable artifacts are recorded as warnings rather
// than silently dropped.
func (j *Journal) Artifact(stage, path string) {
	if j == nil {
		return
	}
	sum, size, err := fileSHA256(path)
	if err != nil {
		j.Warning(stage, "artifact unreadable: "+err.Error(), map[string]string{"path": path})
		return
	}
	j.emit(KindArtifact, stage, "", map[string]string{
		"path":   path,
		"sha256": sum,
		"bytes":  strconv.FormatInt(size, 10),
	}, nil)
}

func fileSHA256(path string) (sum string, size int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return "", 0, err
	}
	defer f.Close()
	h := sha256.New()
	n, err := io.Copy(h, f)
	if err != nil {
		return "", 0, err
	}
	return hex.EncodeToString(h.Sum(nil)), n, nil
}

func (j *Journal) emit(kind, stage, msg string, attrs map[string]string, detail any) {
	if j == nil {
		return
	}
	e := Event{
		Seq:   j.seq.Add(1),
		TNs:   time.Now().UnixNano(),
		Run:   j.runID,
		Kind:  kind,
		Stage: stage,
		Msg:   msg,
		Attrs: attrs,
	}
	if detail != nil {
		raw, err := json.Marshal(detail)
		if err != nil {
			e.Attrs = cloneAttrs(attrs)
			e.Attrs["detail_error"] = err.Error()
		} else {
			e.Detail = raw
		}
	}
	line, err := json.Marshal(&e)
	if err != nil {
		Log().Errorf("obs: journal: encoding event: %v", err)
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed || j.failed {
		return
	}
	_, err = j.w.Write(line)
	if err == nil {
		err = j.w.WriteByte('\n')
	}
	if err == nil && kind == KindFailure {
		// Failures are the events a post-mortem cannot afford to lose to a
		// subsequent crash; they are rare, so flushing each one is free.
		err = j.w.Flush()
	}
	if err != nil {
		// Journaling must never take the flow down: log once and go quiet.
		j.failed = true
		Log().Errorf("obs: journal: write failed, disabling: %v", err)
	}
}

func cloneAttrs(attrs map[string]string) map[string]string {
	out := make(map[string]string, len(attrs)+1)
	for k, v := range attrs {
		out[k] = v
	}
	return out
}

// Sync flushes buffered events to the underlying sink. Safe to call
// repeatedly and on nil.
func (j *Journal) Sync() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	return j.w.Flush()
}

// Close flushes and closes the journal; later events are dropped. Safe to
// call repeatedly and on nil.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	err := j.w.Flush()
	if j.c != nil {
		if cerr := j.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// ReadJournal decodes a JSONL journal stream. A malformed final line — the
// torn write of a crashed or killed process — is tolerated and dropped;
// malformed lines in the middle of the stream are an error.
func ReadJournal(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 64<<20)
	var out []Event
	var pendingErr error
	pendingLine := 0
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(line, &e); err != nil {
			// Only tolerable if no well-formed event follows.
			pendingErr, pendingLine = err, lineNo
			continue
		}
		if pendingErr != nil {
			return nil, fmt.Errorf("obs: journal line %d: %w", pendingLine, pendingErr)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: journal: %w", err)
	}
	return out, nil
}

// ReadJournalFile reads a journal from disk via ReadJournal.
func ReadJournalFile(path string) ([]Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadJournal(f)
}
