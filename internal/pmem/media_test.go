package pmem

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"unsafe"
)

// residentBytes counts the media pages the kernel holds in memory, by
// mincore(2) on the device's mapping: unlike the process's VmRSS it is
// exact and belongs to this device alone.
func residentBytes(t *testing.T, d *Device) int {
	t.Helper()
	media := d.lockMedia()
	defer d.mu.Unlock()
	page := os.Getpagesize()
	vec := make([]byte, (len(media)+page-1)/page)
	_, _, errno := syscall.Syscall(syscall.SYS_MINCORE,
		uintptr(unsafe.Pointer(&media[0])), uintptr(len(media)), uintptr(unsafe.Pointer(&vec[0])))
	if errno != 0 {
		t.Fatalf("mincore: %v", errno)
	}
	n := 0
	for _, v := range vec {
		n += int(v & 1)
	}
	return n * page
}

// TestMediaCostsOnlyTouchedPages: a 64 MiB pool with 3 MB written holds
// about 3 MB of media in memory, both as created and as reopened from its
// checkpoint — the zero-skipping load leaves the pool's zero pages
// unfaulted. The data is one contiguous span, so huge pages round it up by
// at most a 2 MiB page at each end.
func TestMediaCostsOnlyTouchedPages(t *testing.T) {
	const size = 64 << 20
	const (
		written   = 3 << 20
		createMax = 8 << 20
		reopenMax = 20 << 20
	)
	path := filepath.Join(t.TempDir(), "p.pool")
	cfg := DefaultConfig(size)
	d, err := Open(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, written)
	rand.New(rand.NewSource(1)).Read(data)
	const at = 9 << 20
	for off := 0; off < written; off += 64 << 10 {
		d.Write(uint64(at+off), data[off:off+64<<10], 0)
		if err := d.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	got := residentBytes(t, d)
	t.Logf("new pool: %.1f MB of media resident", float64(got)/(1<<20))
	if got >= createMax {
		t.Fatalf("new pool with %d MB written holds %.1f MB of media, want < %d MB", written>>20, float64(got)/(1<<20), createMax>>20)
	}
	// Fold the log into the pool file, so the reopen loads the data from
	// the checkpoint rather than replaying it.
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d = openDelta(t, path, cfg)
	if got := d.ReplayInfo().Records; got != 0 {
		t.Fatalf("reopen replayed %d records; the checkpoint should hold them all", got)
	}
	got = residentBytes(t, d)
	t.Logf("reopened pool: %.1f MB of media resident", float64(got)/(1<<20))
	if got >= reopenMax {
		t.Fatalf("reopened pool with %d MB of data holds %.1f MB of media, want < %d MB", written>>20, float64(got)/(1<<20), reopenMax>>20)
	}
	back := make([]byte, written)
	d.Read(at, back, 0)
	if !bytes.Equal(back, data) {
		t.Fatal("reopened pool lost data")
	}
}

// TestPoolBirthIsSparse: a new pool's checkpoint is published by a
// Truncate, not by writing its zeros, so the file occupies at most one
// block and reads back as size zero bytes.
func TestPoolBirthIsSparse(t *testing.T) {
	const size = 64 << 20
	path := filepath.Join(t.TempDir(), "p.pool")
	openDelta(t, path, DefaultConfig(size))
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != size {
		t.Fatalf("pool file holds %d bytes, want %d", fi.Size(), size)
	}
	if blocks := fi.Sys().(*syscall.Stat_t).Blocks; blocks*512 > 4<<10 {
		t.Fatalf("new %d MiB pool file allocates %d bytes, want ≤ 4 KiB", size>>20, blocks*512)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img, make([]byte, size)) {
		t.Fatal("new pool file is not all zeros")
	}
}

// TestLoadCopiesEveryNonZeroPage: the zero-skipping load reproduces the
// checkpoint exactly — a lone non-zero byte at either end of a page, a
// chunk boundary, and a final partial page and chunk included.
func TestLoadCopiesEveryNonZeroPage(t *testing.T) {
	const size = 2*loadChunk + 3*loadPage + 100
	img := make([]byte, size)
	rng := rand.New(rand.NewSource(7))
	for _, off := range []int{0, loadPage - 1, loadChunk - 1, loadChunk, loadChunk + 5*loadPage, size - 1} {
		img[off] = byte(1 + rng.Intn(255))
	}
	rng.Read(img[3*loadPage : 5*loadPage])
	path := filepath.Join(t.TempDir(), "p.pool")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	d := openDelta(t, path, DefaultConfig(size))
	if !bytes.Equal(d.Snapshot(), img) {
		t.Fatal("loaded media differs from the checkpoint")
	}
}

// TestClosedDeviceFailsSafely: Close unmaps the media, so every later media
// access must be a Go panic, never a fault on the unmapped range; a later
// Sync fails; and a second Close unmaps nothing — were it to unmap the old
// range again, it would take a newer device's media that the kernel placed
// at the same address.
func TestClosedDeviceFailsSafely(t *testing.T) {
	const size = 4 << 20
	for _, tc := range []struct {
		name string
		open func(t *testing.T) *Device
	}{
		{"in-memory", func(*testing.T) *Device { return New(DefaultConfig(size)) }},
		{"file-backed", func(t *testing.T) *Device {
			d, err := Open(filepath.Join(t.TempDir(), "p.pool"), DefaultConfig(size))
			if err != nil {
				t.Fatal(err)
			}
			return d
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := tc.open(t)
			mapped := unsafe.SliceData(d.media)
			d.Write(0, []byte("x"), 0)
			if err := d.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			for name, access := range map[string]func(){
				"Read":       func() { d.Read(0, make([]byte, 1), 0) },
				"Write":      func() { d.Write(0, []byte("y"), 0) },
				"Snapshot":   func() { d.Snapshot() },
				"Restore":    func() { d.Restore(make([]byte, size)) },
				"InjectTear": func() { d.InjectTear(0, 8, 0) },
			} {
				func() {
					defer func() {
						if r := recover(); !strings.Contains(fmt.Sprint(r), "closed device") {
							t.Fatalf("%s after Close: recovered %v, want a closed-device panic", name, r)
						}
					}()
					access()
				}()
			}
			if err := d.Sync(); err == nil {
				t.Fatal("Sync after Close succeeded")
			}

			next := New(DefaultConfig(size))
			defer next.Close()
			if unsafe.SliceData(next.media) != mapped {
				t.Log("the newer device's media is mapped elsewhere; a second unmap would not show here")
			}
			next.Write(size-5, []byte("alive"), 0)
			d.Close() // the second Close: its result is not the point
			buf := make([]byte, 5)
			next.Read(size-5, buf, 0)
			if string(buf) != "alive" {
				t.Fatalf("a newer device reads %q after the old one's second Close", buf)
			}
		})
	}
}
