package stats

import (
	"strings"
	"testing"
)

func TestRegistryWriteTo(t *testing.T) {
	r := NewRegistry()
	var c Counter
	c.Add(42)
	r.RegisterCounter("beta_total", &c)
	r.Register("alpha_rate", func() float64 { return 0.5 })
	var ra Ratio
	ra.Hits.Add(3)
	ra.Misses.Add(1)
	r.RegisterCounter("gamma_hits", &ra.Hits)
	r.RegisterCounter("gamma_misses", &ra.Misses)

	got := render(r)
	want := "alpha_rate 0.5\nbeta_total 42\ngamma_hits 3\ngamma_misses 1\n"
	if got != want {
		t.Fatalf("WriteTo:\n%s\nwant:\n%s", got, want)
	}

	// Live sampling: counters read at render time, not registration time.
	c.Add(8)
	if got := render(r); !strings.Contains(got, "beta_total 50\n") {
		t.Fatalf("registry did not sample live counter: %s", got)
	}

	s := r.Snapshot()
	if s["beta_total"] != 50 || s["alpha_rate"] != 0.5 {
		t.Fatalf("bad snapshot %v", s)
	}
}

// render renders r as WriteTo does.
func render(r *Registry) string {
	var b strings.Builder
	r.WriteTo(&b)
	return b.String()
}

func TestRegistryRejectsBadNames(t *testing.T) {
	r := NewRegistry()
	r.Register("ok", func() float64 { return 0 })
	for _, bad := range []string{"", "has space", "ok"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Register(%q) did not panic", bad)
				}
			}()
			r.Register(bad, func() float64 { return 0 })
		}()
	}
}
