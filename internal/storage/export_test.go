package storage

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"fpdyn/internal/faultinject"
)

// TestWriteFileAtomicWriteFault drives the store's export at one and
// at four shards through WriteFileAtomic with a writer that fails
// partway: the previous export must stay byte-identical and no
// temporary file may be left in the directory. A clean export
// afterwards replaces it.
func TestWriteFileAtomicWriteFault(t *testing.T) {
	s := NewShardedStore(1)
	ss := NewShardedStore(4)
	for i := 0; i < 5; i++ {
		s.Append(mkRecord(i))
		ss.Append(mkRecord(i))
	}
	for _, tc := range []struct {
		name string
		save func(path string) error
		grow func(i int)
		dump io.WriterTo
	}{
		{"store", s.SaveFile, func(i int) { s.Append(mkRecord(i)) }, s},
		{"sharded", ss.SaveFile, func(i int) { ss.Append(mkRecord(i)) }, ss},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "export.jsonl")
			if err := tc.save(path); err != nil {
				t.Fatal(err)
			}
			old, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for i := 5; i < 50; i++ {
				tc.grow(i)
			}
			script := &faultinject.Script{FailAfter: int64(len(old) / 2)}
			err = WriteFileAtomic(path, func(w io.Writer) error {
				_, err := tc.dump.WriteTo(&faultinject.Writer{W: w, Script: script})
				return err
			})
			if !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("faulted export returned %v, want the injected fault", err)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, old) {
				t.Fatalf("faulted export changed the previous file (%d bytes, was %d)", len(got), len(old))
			}
			assertOnlyFile(t, dir, "export.jsonl")

			if err := tc.save(path); err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if _, err := tc.dump.WriteTo(&want); err != nil {
				t.Fatal(err)
			}
			if got, _ := os.ReadFile(path); !bytes.Equal(got, want.Bytes()) || len(got) <= len(old) {
				t.Fatalf("clean export wrote %d bytes, want the grown store's %d", len(got), want.Len())
			}
			assertOnlyFile(t, dir, "export.jsonl")
		})
	}
}

// assertOnlyFile fails unless dir holds exactly one entry, name.
func assertOnlyFile(t *testing.T, dir, name string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != name {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Fatalf("directory holds %v, want only %s", names, name)
	}
}
