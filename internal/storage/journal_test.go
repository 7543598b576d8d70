package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// replayAll recovers a journal directory into (snapshot frames,
// segment frames) string slices.
func replayAll(t *testing.T, dir string) (snap, seg []string, stats JournalReplayStats) {
	t.Helper()
	w, stats, err := ReplayJournal(WALOptions{Dir: dir},
		func(p []byte) error { snap = append(snap, string(p)); return nil },
		func(p []byte) error { seg = append(seg, string(p)); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return snap, seg, stats
}

// TestJournalRoundTrip: appended payloads come back verbatim, in
// order, across close/reopen cycles.
func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, stats, err := ReplayJournal(WALOptions{Dir: dir}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Frames != 0 || stats.SnapshotSeg != 0 {
		t.Fatalf("fresh dir replayed state: %+v", stats)
	}
	var want []string
	for i := 0; i < 20; i++ {
		p := fmt.Sprintf("payload-%02d", i)
		if err := w.AppendPayload([]byte(p)); err != nil {
			t.Fatal(err)
		}
		want = append(want, p)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	snap, seg, stats := replayAll(t, dir)
	if len(snap) != 0 {
		t.Fatalf("unexpected snapshot frames: %v", snap)
	}
	if !reflect.DeepEqual(seg, want) {
		t.Fatalf("replayed %v, want %v", seg, want)
	}
	if stats.Frames != len(want) {
		t.Fatalf("stats.Frames = %d, want %d", stats.Frames, len(want))
	}
}

// TestJournalCompact: Rotate then Checkpoint folds the log into a
// snapshot; replay sees snapshot frames plus only post-compaction
// appends, and the covered segment files are gone.
func TestJournalCompact(t *testing.T) {
	dir := t.TempDir()
	w, _, err := ReplayJournal(WALOptions{Dir: dir}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := w.AppendPayload([]byte(fmt.Sprintf("old-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// The caller's consistent cut: pretend live state is 3 payloads.
	live := []string{"live-a", "live-b", "live-c"}
	active, err := w.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.Checkpoint(active-1, func(write func([]byte) error) error {
		for _, p := range live {
			if err := write([]byte(p)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendPayload([]byte("after-compact")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	snap, seg, stats := replayAll(t, dir)
	if !reflect.DeepEqual(snap, live) {
		t.Fatalf("snapshot frames %v, want %v", snap, live)
	}
	if !reflect.DeepEqual(seg, []string{"after-compact"}) {
		t.Fatalf("segment frames %v, want [after-compact]", seg)
	}
	if stats.SnapshotSeg == 0 || stats.SnapshotFrames != len(live) {
		t.Fatalf("stats %+v: snapshot not loaded", stats)
	}
}

// TestJournalTornTail: a partial frame appended to the live segment is
// truncated on replay, everything before it survives, and a second
// replay is clean.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	w, _, err := ReplayJournal(WALOptions{Dir: dir}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := w.AppendPayload([]byte(fmt.Sprintf("p%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail: a frame header promising more bytes than exist.
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	tail := filepath.Join(dir, segs[len(segs)-1].name)
	f, err := os.OpenFile(tail, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{200, 0, 0, 0, 1, 2, 3, 4, 'x', 'y'}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, seg, stats := replayAll(t, dir)
	if len(seg) != 5 {
		t.Fatalf("replayed %d frames, want 5: %v", len(seg), seg)
	}
	if !stats.Truncated || stats.TruncatedBytes != 10 {
		t.Fatalf("stats %+v: torn tail not truncated", stats)
	}
	_, seg, stats = replayAll(t, dir)
	if len(seg) != 5 || stats.Truncated {
		t.Fatalf("second replay dirty: %d frames, %+v", len(seg), stats)
	}
}

func TestAppendPayloadAllocationFree(t *testing.T) {
	// linkd journals every add through AppendPayload, so framing one
	// payload must not allocate once the WAL's buffer has grown.
	w, _, err := ReplayJournal(WALOptions{Dir: t.TempDir(), Policy: SyncNever}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	p := []byte(`{"op":"add","id":"e-1"}`)
	if err := w.AppendPayload(p); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() { w.AppendPayload(p) }); n != 0 {
		t.Fatalf("AppendPayload allocates %v times per call", n)
	}
}
