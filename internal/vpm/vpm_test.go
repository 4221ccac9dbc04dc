package vpm

import (
	"testing"

	"pax/internal/memory"
)

func TestRegionWindow(t *testing.T) {
	flat := memory.NewFlat(1 << 16)
	r := New(flat, 4096, 8192)
	r.Store(5000, []byte("inside"))
	buf := make([]byte, 6)
	r.Load(5000, buf)
	if string(buf) != "inside" {
		t.Fatalf("got %q", buf)
	}
	r.StoreU64(5008, 0x0102030405060708)
	r.StoreU32(5016, 0x0a0b0c0d)
	if got := r.LoadU64(5008); got != 0x0102030405060708 {
		t.Fatalf("LoadU64 = %#x", got)
	}
	if got := r.LoadU32(5016); got != 0x0a0b0c0d {
		t.Fatalf("LoadU32 = %#x", got)
	}
	r.Load(5008, buf[:4])
	if string(buf[:4]) != "\x08\x07\x06\x05" {
		t.Fatalf("StoreU64 is not little-endian: % x", buf[:4])
	}
}

func TestRegionBounds(t *testing.T) {
	flat := memory.NewFlat(1 << 16)
	r := New(flat, 4096, 8192)
	for _, fn := range []func(){
		func() { r.Load(0, make([]byte, 1)) },            // below
		func() { r.Load(4096+8192, make([]byte, 1)) },    // above
		func() { r.Store(4096+8190, make([]byte, 4)) },   // straddles end
		func() { r.Load(^uint64(0)-1, make([]byte, 8)) }, // overflow
		func() { r.LoadU64(4096 + 8188) },                // word straddles end
		func() { r.StoreU64(4088, 1) },                   // word starts below
		func() { r.LoadU32(4096 + 8190) },                // word straddles end
		func() { r.StoreU32(^uint64(0)-1, 1) },           // word overflows
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
	// Boundary accesses are legal.
	r.Store(4096, []byte{1})
	r.Store(4096+8191, []byte{1})
	r.StoreU64(4096+8184, 1)
	r.StoreU32(4096+8188, 1)
}

func TestEmptyRegionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(memory.NewFlat(64), 0, 0)
}
