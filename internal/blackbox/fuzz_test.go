package blackbox

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzJournalReplay writes hostile bytes as a journal's only segment and
// opens it read-only for a postmortem: Open and Replay must return an error
// or records, never panic. The seed is a real two-record journal.
func FuzzJournalReplay(f *testing.F) {
	dir := f.TempDir()
	j, err := Open(Config{Dir: dir})
	if err != nil {
		f.Fatal(err)
	}
	for _, typ := range []string{"open", "seal"} {
		if err := j.Append(typ, []byte(`{"shard":0}`)); err != nil {
			f.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(filepath.Join(dir, format.SegName(1)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	// One directory for every input: the segment file is rewritten in place,
	// which keeps an exec far cheaper than making a directory each time.
	dir = f.TempDir()
	f.Fuzz(func(t *testing.T, seg []byte) {
		if err := os.WriteFile(filepath.Join(dir, format.SegName(1)), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := Open(Config{Dir: dir, ReadOnly: true})
		if err != nil {
			return
		}
		defer j.Close()
		last := uint64(0)
		err = j.Replay(func(rec Record) error {
			if rec.Seq <= last {
				t.Fatalf("record seq %d after %d", rec.Seq, last)
			}
			last = rec.Seq
			return nil
		})
		if err == nil && last != 0 {
			if info := j.Info(); info.LastSeq != last {
				t.Fatalf("replayed through seq %d, Info reports %d", last, info.LastSeq)
			}
		}
	})
}
