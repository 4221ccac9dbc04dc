package server

import (
	"fmt"
	"testing"

	"pax"
)

// The serving-layer microbenchmarks: per-op cost and allocations on the
// engine hot paths. Run with -benchmem; the request-pooling and read-index
// work is judged by these numbers (before/after in the PR description).

func benchEngine(b *testing.B, cfg Config) *Engine {
	b.Helper()
	pool, err := pax.MapPool("", smallOpts())
	if err != nil {
		b.Fatal(err)
	}
	eng, err := newEngine(pool, 0, cfg, 0, newEventHub())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		eng.Close()
		pool.Close()
	})
	return eng
}

// BenchmarkEnginePut measures the acked-durable write path: one serial
// writer, so every PUT is a batch of its own and pays a whole group commit on
// an in-memory pool.
func BenchmarkEnginePut(b *testing.B) {
	eng := benchEngine(b, Config{MaxBatch: 1})
	key := []byte("bench-key")
	val := []byte("0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Put(key, val); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineGet measures the read path against a warm store.
func BenchmarkEngineGet(b *testing.B) {
	eng := benchEngine(b, Config{MaxBatch: 64})
	const keys = 1024
	val := []byte("0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef")
	for i := 0; i < keys; i++ {
		if _, err := eng.Put([]byte(fmt.Sprintf("k%06d", i)), val); err != nil {
			b.Fatal(err)
		}
	}
	key := []byte("k000123")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := eng.Get(key); err != nil || !ok {
			b.Fatalf("get: ok=%v err=%v", ok, err)
		}
	}
}

// BenchmarkEngineGetParallel is the concurrent read path — the case the
// read index exists for: many reader goroutines against one engine.
func BenchmarkEngineGetParallel(b *testing.B) {
	eng := benchEngine(b, Config{MaxBatch: 64})
	val := []byte("0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef")
	if _, err := eng.Put([]byte("hot"), val); err != nil {
		b.Fatal(err)
	}
	key := []byte("hot")
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, ok, err := eng.Get(key); err != nil || !ok {
				b.Fatalf("get: ok=%v err=%v", ok, err)
			}
		}
	})
}
