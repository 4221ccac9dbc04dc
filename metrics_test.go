package pax_test

import (
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"pax/internal/server"
)

// baseNames folds metric lines into base names: labels ({q=…}, {shard=…})
// stripped, and a histogram's derived _count / _sum lines folded into the
// histogram's name. isHistogram says which names are histograms.
func baseNames(lines []string, isHistogram func(string) bool) map[string]bool {
	names := make(map[string]bool)
	for _, name := range lines {
		if i := strings.IndexByte(name, '{'); i > 0 {
			name = name[:i]
		}
		for _, suffix := range []string{"_count", "_sum"} {
			if base := strings.TrimSuffix(name, suffix); base != name && isHistogram(base) {
				name = base
			}
		}
		names[name] = true
	}
	return names
}

// emittedMetricNames returns the base metric names a 2-shard file-backed
// fleet emits.
func emittedMetricNames(t *testing.T) map[string]bool {
	t.Helper()
	path := filepath.Join(t.TempDir(), "kv.pool")
	eng, err := server.OpenSharded(path, 2, smallOpts(), 0, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	m, err := eng.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	histograms := make(map[string]bool)
	for name := range m {
		lines = append(lines, name)
		if i := strings.Index(name, `{q="`); i > 0 {
			histograms[name[:i]] = true
		}
	}
	return baseNames(lines, func(name string) bool { return histograms[name] })
}

// documentedMetricNames returns every backticked pax_* / paxserve_* name in
// README.md's observability section.
func documentedMetricNames(t *testing.T) map[string]bool {
	t.Helper()
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(readme)
	start := strings.Index(text, "### Observability")
	if start < 0 {
		t.Fatal("README.md has no observability section")
	}
	section := text[start:]
	if end := strings.Index(section[4:], "\n### "); end >= 0 {
		section = section[:end+4]
	}
	var lines []string
	for _, span := range regexp.MustCompile("`[^`]*`").FindAllString(section, -1) {
		lines = append(lines, regexp.MustCompile(`\bpax(serve)?_[a-z0-9_]+`).FindAllString(span, -1)...)
	}
	plain := baseNames(lines, func(string) bool { return false })
	return baseNames(lines, func(name string) bool { return plain[name] })
}

func TestEveryMetricIsDocumented(t *testing.T) {
	emitted, documented := emittedMetricNames(t), documentedMetricNames(t)
	var undocumented, stale []string
	for name := range emitted {
		if !documented[name] {
			undocumented = append(undocumented, name)
		}
	}
	for name := range documented {
		if !emitted[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(undocumented)
	sort.Strings(stale)
	if len(undocumented) > 0 {
		t.Errorf("emitted but not in README.md's observability section:\n  %s", strings.Join(undocumented, "\n  "))
	}
	if len(stale) > 0 {
		t.Errorf("in README.md's observability section but not emitted:\n  %s", strings.Join(stale, "\n  "))
	}
}
