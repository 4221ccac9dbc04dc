package stats

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Load() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Load())
	}
	c.Add(42)
	if c.Load() != 8042 {
		t.Fatalf("counter = %d, want 8042", c.Load())
	}
	c.Reset()
	if c.Load() != 0 {
		t.Fatal("Reset failed")
	}
}

func TestRatio(t *testing.T) {
	var r Ratio
	if r.HitRate() != 0 || r.MissRate() != 0 {
		t.Fatal("empty ratio must report 0")
	}
	r.Hits.Add(3)
	r.Misses.Add(1)
	if r.Total() != 4 {
		t.Fatalf("total = %d", r.Total())
	}
	if r.HitRate() != 0.75 {
		t.Fatalf("hit rate = %g", r.HitRate())
	}
	if r.MissRate() != 0.25 {
		t.Fatalf("miss rate = %g", r.MissRate())
	}
	r.Reset()
	if r.Total() != 0 {
		t.Fatal("Reset failed")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Fig 2a", "config", "amat_ns")
	tb.AddRowf("dram", 10.5)
	tb.AddRowf("pm", 18.25)
	out := tb.String()
	if !strings.Contains(out, "## Fig 2a") {
		t.Fatalf("missing title: %q", out)
	}
	if !strings.Contains(out, "config") || !strings.Contains(out, "dram") {
		t.Fatalf("missing cells: %q", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
}

func TestSummaryString(t *testing.T) {
	a := Summary{"z": 4, "x": 1, "y": 5}
	s := a.String()
	// Sorted by key.
	if !(strings.Index(s, "x=") < strings.Index(s, "y=") && strings.Index(s, "y=") < strings.Index(s, "z=")) {
		t.Fatalf("not sorted: %q", s)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("t", "a", "b")
	tb.AddRow("1", "plain")
	tb.AddRow("2", `with,comma and "quote"`)
	csv := tb.CSV()
	want := "a,b\n1,plain\n2,\"with,comma and \"\"quote\"\"\"\n"
	if csv != want {
		t.Fatalf("CSV:\n%q\nwant\n%q", csv, want)
	}
}

func TestCounterStoreMax(t *testing.T) {
	var c Counter
	c.StoreMax(5)
	if c.Load() != 5 {
		t.Fatalf("counter = %d, want 5", c.Load())
	}
	c.StoreMax(3) // lower values never regress the high-water mark
	if c.Load() != 5 {
		t.Fatalf("counter = %d after lower StoreMax, want 5", c.Load())
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.StoreMax(uint64(i*1000 + j))
			}
		}(i)
	}
	wg.Wait()
	if c.Load() != 7999 {
		t.Fatalf("concurrent StoreMax = %d, want 7999", c.Load())
	}
}
