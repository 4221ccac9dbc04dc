package pmem

import (
	"fmt"
	"syscall"
)

// newMedia returns size zero bytes that cost no resident memory until a page
// is first touched: an anonymous private mapping, outside the Go heap, so the
// runtime never clears or scans it. The huge-page advice lets the kernel
// back a touched 2 MiB region with one fault instead of 512. It is only
// advice, so its error (a kernel without transparent huge pages) is ignored.
func newMedia(size int) []byte {
	b, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		panic(fmt.Sprintf("pmem: mapping %d bytes of media: %v", size, err))
	}
	_ = syscall.Madvise(b, syscall.MADV_HUGEPAGE)
	return b
}

// release unmaps the media once; Close calls it, and a finalizer calls it
// for a device that is never closed. Any later media access panics in
// lockMedia rather than faulting on the unmapped range.
func (d *Device) release() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.media == nil {
		return
	}
	if err := syscall.Munmap(d.media); err != nil {
		panic(fmt.Sprintf("pmem: unmapping media: %v", err))
	}
	d.media = nil
}

// lockMedia takes d.mu and returns the media. Every media access after Open
// goes through it and holds the lock while it touches the bytes: that is
// what keeps an access from racing Close's unmap (the race detector does not
// see memory outside the Go heap), and it keeps d reachable, so the
// finalizer cannot unmap under it either. On a closed device it releases the
// lock and panics.
func (d *Device) lockMedia() []byte {
	d.mu.Lock()
	if d.media == nil {
		d.mu.Unlock()
		panic("pmem: media access on a closed device")
	}
	return d.media
}
