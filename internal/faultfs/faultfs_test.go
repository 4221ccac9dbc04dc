package faultfs

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

var errInjected = errors.New("injected EIO")

// openIn creates dir/name through fs and returns it open for writing.
func openIn(t *testing.T, fs *FS, dir, name string) *file {
	t.Helper()
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := fs.OpenFile(filepath.Join(dir, name), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.(*file).inner.Close() })
	return f.(*file)
}

// syncs reports, for each of n Syncs of f, whether it failed.
func syncs(f *file, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = f.Sync() != nil
	}
	return out
}

func TestSchedulesCountOnlyMatchingSyncs(t *testing.T) {
	root := t.TempDir()
	// The sick dir's name prefixes the well one's, so a match by bare
	// string prefix would count both.
	sick, well := filepath.Join(root, "log"), filepath.Join(root, "log2")
	for _, c := range []struct {
		name     string
		schedule func(func(string) bool, int, error) func(Op) error
		want     string
	}{
		{"FailSyncs", FailSyncs, "[true true false false]"},
		{"FailSyncsAfter", FailSyncsAfter, "[false false true true]"},
	} {
		t.Run(c.name, func(t *testing.T) {
			fs := New(nil)
			a, b := openIn(t, fs, sick, c.name), openIn(t, fs, well, c.name)
			fs.Set(c.schedule(In(sick), 2, errInjected))
			for i := range 4 {
				// Writes, truncates and syncs elsewhere neither fail nor
				// count.
				if _, err := a.WriteAt([]byte("x"), int64(i)); err != nil {
					t.Fatalf("write %d: %v", i, err)
				}
				if err := b.Sync(); err != nil {
					t.Fatalf("sync outside the matched dir: %v", err)
				}
				if err := a.Truncate(int64(i)); err != nil {
					t.Fatalf("truncate %d: %v", i, err)
				}
			}
			if got := fmt.Sprint(syncs(a, 4)); got != c.want {
				t.Fatalf("syncs failed as %v, want %s", got, c.want)
			}
			if err := a.Sync(); errors.Is(err, errInjected) != (c.name == "FailSyncsAfter") {
				t.Fatalf("fifth sync = %v", err)
			}
		})
	}
}

func TestSetNilClears(t *testing.T) {
	fs := New(nil)
	dir := t.TempDir()
	f := openIn(t, fs, dir, "f")
	fs.Set(func(Op) error { return errInjected })
	if err := f.Sync(); !errors.Is(err, errInjected) {
		t.Fatalf("armed sync = %v", err)
	}
	if _, err := fs.Stat(dir); !errors.Is(err, errInjected) {
		t.Fatalf("armed stat = %v", err)
	}
	fs.Set(nil)
	if err := f.Sync(); err != nil {
		t.Fatalf("sync after Set(nil) = %v", err)
	}
	if _, err := fs.Stat(dir); err != nil {
		t.Fatalf("stat after Set(nil) = %v", err)
	}
}

// TestBlockingFnHoldsOneOp: a function that blocks holds the operation it
// was consulted for, and only that one.
func TestBlockingFnHoldsOneOp(t *testing.T) {
	fs := New(nil)
	dir := t.TempDir()
	held, free := openIn(t, fs, dir, "held"), openIn(t, fs, dir, "free")
	release, reached := make(chan struct{}), make(chan struct{})
	fs.Set(func(op Op) error {
		if op.Kind == Sync && op.Path == held.name {
			close(reached)
			<-release
		}
		return nil
	})
	done := make(chan error)
	go func() { done <- held.Sync() }()
	<-reached
	for i := range 3 {
		if _, err := free.WriteAt([]byte("y"), int64(i)); err != nil {
			t.Fatal(err)
		}
		if err := free.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case err := <-done:
		t.Fatalf("held sync returned %v before its release", err)
	case <-time.After(10 * time.Millisecond):
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("released sync = %v", err)
	}
}

// TestConcurrentSet swaps the function while other goroutines run
// operations; -race holds it to clean.
func TestConcurrentSet(t *testing.T) {
	fs := New(nil)
	dir := t.TempDir()
	f := openIn(t, fs, dir, "f")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				f.Sync()
				fs.Stat(dir)
			}
		}()
	}
	for i := range 200 {
		switch i % 3 {
		case 0:
			fs.Set(FailSyncs(In(dir), 1, errInjected))
		case 1:
			fs.Set(FailSyncsAfter(In(dir), 1, errInjected))
		default:
			fs.Set(nil)
		}
	}
	close(stop)
	wg.Wait()
}
