package benchkit

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"pax/internal/workload"
)

func quickRun(t *testing.T, kind SystemKind, spec RunSpec) RunResult {
	t.Helper()
	f, err := Build(kind, TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	return RunKV(f, spec)
}

func writeSpec(persistEvery int) RunSpec {
	return RunSpec{
		Workload:     workload.Fig2bConfig(1000),
		LoadKeys:     1000,
		MeasureOps:   2000,
		PersistEvery: persistEvery,
	}
}

func TestAllFixturesBuildAndRun(t *testing.T) {
	for _, kind := range []SystemKind{DRAM, PMDirect, PMDK, CompilerPass, PageFault, PAXCXL, PAXEnzian} {
		f, err := Build(kind, TestConfig())
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		persistEvery := 0
		if kind == PageFault || kind == PAXCXL || kind == PAXEnzian {
			persistEvery = 500
		}
		res := RunKV(f, RunSpec{
			Workload:     workload.Fig2bConfig(500),
			LoadKeys:     500,
			MeasureOps:   1000,
			PersistEvery: persistEvery,
		})
		if res.NsPerOp <= 0 {
			t.Fatalf("%s: ns/op = %g", kind, res.NsPerOp)
		}
		// Functional check: the map must answer gets after the run.
		g := workload.NewGenerator(workload.Fig2bConfig(500))
		found := 0
		for i := uint64(0); i < 500; i++ {
			if _, ok := f.Map.Get(g.MakeKey(i)); ok {
				found++
			}
		}
		if found != 500 {
			t.Fatalf("%s: only %d/500 keys survive the run", kind, found)
		}
	}
}

func TestPerformanceOrdering(t *testing.T) {
	dram := quickRun(t, DRAM, writeSpec(0))
	pmDirect := quickRun(t, PMDirect, writeSpec(0))
	pmdkRes := quickRun(t, PMDK, writeSpec(0))
	cp := quickRun(t, CompilerPass, writeSpec(0))
	pax := quickRun(t, PAXCXL, writeSpec(500))

	// The paper's qualitative claims, in ns/op (lower is better):
	if !(dram.NsPerOp < pmDirect.NsPerOp) {
		t.Errorf("DRAM (%.0f) not faster than PM direct (%.0f)", dram.NsPerOp, pmDirect.NsPerOp)
	}
	if !(pmDirect.NsPerOp < pmdkRes.NsPerOp) {
		t.Errorf("PM direct (%.0f) not faster than PMDK (%.0f)", pmDirect.NsPerOp, pmdkRes.NsPerOp)
	}
	// On update-in-place workloads the two WAL variants coincide (one chunk
	// per op); the hand-crafted advantage appears on multi-store ops, which
	// TestStallAccounting checks with an insert-heavy workload. Here the
	// pass must merely never beat the hand-crafted code.
	if pmdkRes.NsPerOp > cp.NsPerOp {
		t.Errorf("hand-crafted PMDK (%.0f) slower than compiler pass (%.0f)", pmdkRes.NsPerOp, cp.NsPerOp)
	}
	// §5: PAX with group commit beats the synchronous WAL.
	if !(pax.NsPerOp < pmdkRes.NsPerOp) {
		t.Errorf("PAX (%.0f) not faster than PMDK (%.0f)", pax.NsPerOp, pmdkRes.NsPerOp)
	}
}

func TestStallAccounting(t *testing.T) {
	// Insert-heavy spec (no pre-load): each put allocates and links a node,
	// so ops have several stores — where per-store instrumentation (the
	// compiler pass) pays more fences than chunk-deduplicating PMDK.
	insertSpec := func(persistEvery int) RunSpec {
		return RunSpec{
			Workload:     workload.Fig2bConfig(4000),
			MeasureOps:   2000,
			PersistEvery: persistEvery,
		}
	}
	pmdkRes := quickRun(t, PMDK, insertSpec(0))
	cp := quickRun(t, CompilerPass, insertSpec(0))
	pax := quickRun(t, PAXCXL, insertSpec(500))

	if pmdkRes.FencesPerOp < 1 {
		t.Errorf("PMDK fences/op = %.2f, want ≥ 1", pmdkRes.FencesPerOp)
	}
	if cp.FencesPerOp <= pmdkRes.FencesPerOp {
		t.Errorf("compiler pass fences/op %.2f not above PMDK %.2f", cp.FencesPerOp, pmdkRes.FencesPerOp)
	}
	if pax.FencesPerOp != 0 {
		t.Errorf("PAX fences/op = %.2f, want 0 (stalls only in persist)", pax.FencesPerOp)
	}
}

func TestScaleModel(t *testing.T) {
	res := quickRun(t, PMDirect, writeSpec(0))
	f, _ := Build(PMDirect, TestConfig())
	points := Scale(res, f.Caps(), []int{1, 8, 32})
	if len(points) != 3 {
		t.Fatalf("%d points", len(points))
	}
	if points[0].Mops <= 0 {
		t.Fatal("zero single-thread throughput")
	}
	// Monotone non-decreasing in threads.
	for i := 1; i < len(points); i++ {
		if points[i].Mops < points[i-1].Mops {
			t.Fatalf("throughput fell with threads: %+v", points)
		}
	}
	// With absurdly low caps, the bottleneck must bind.
	capped := Scale(res, Caps{PMWriteBW: 1, PMReadBW: 1}, []int{32})
	if capped[0].Bottleneck == "cpu" {
		t.Fatal("tiny caps did not bind")
	}
}

// quickSizes is the scale the registry is pinned at: the whole registry runs
// in about a second.
var quickSizes = Sizes{Keys: 500, MeasureOps: 600, PersistEvery: 100, Threads: []int{1, 8, 32}}

// runRegistry runs every registered experiment at quickSizes and returns
// their tables as `-experiment all` prints them, each after an "### id" line.
func runRegistry() ([]byte, error) {
	var out bytes.Buffer
	for _, e := range Experiments() {
		tables := e.Run(TestConfig(), quickSizes)
		if len(tables) == 0 {
			return nil, fmt.Errorf("%s produced no tables", e.ID)
		}
		out.WriteString("### " + e.ID + "\n")
		for _, tb := range tables {
			s := tb.String()
			if len(s) == 0 || !strings.Contains(s, "\n") {
				return nil, fmt.Errorf("%s produced an empty table", e.ID)
			}
			out.WriteString(s)
		}
	}
	return out.Bytes(), nil
}

// passes is the registry run twice in this process, side by side: the golden
// check reads the first pass and the determinism check compares the two. Two
// concurrent passes cost one pass's wall time on two cores, and state that
// one run of an experiment shares with another shows up as a difference, or
// as a race under -race.
var passes struct {
	once   sync.Once
	tables [2][]byte
	errs   [2]error
}

func registryPasses(t *testing.T) (first, second []byte) {
	t.Helper()
	passes.once.Do(func() {
		var wg sync.WaitGroup
		for i := range passes.tables {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				passes.tables[i], passes.errs[i] = runRegistry()
			}(i)
		}
		wg.Wait()
	})
	for _, err := range passes.errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return passes.tables[0], passes.tables[1]
}

// Every registered experiment is a pure function of the simulator and its
// seeds: the golden pins every table -experiment prints.
func TestAllExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	first, _ := registryPasses(t)
	checkGolden(t, filepath.Join("testdata", "quick_tables.golden"), first)
}

// A second pass in the same process prints the same bytes, so an experiment
// that reads the wall clock or the scheduler cannot enter the registry; a
// served-load measurement belongs to paxbench -loadgen.
func TestExperimentsAreDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment twice")
	}
	first, second := registryPasses(t)
	if !bytes.Equal(first, second) {
		fl, sl := strings.Split(string(first), "\n"), strings.Split(string(second), "\n")
		id, i := "", 0
		for i < len(fl)-1 && i < len(sl)-1 && fl[i] == sl[i] {
			if strings.HasPrefix(fl[i], "### ") {
				id = fl[i][4:]
			}
			i++
		}
		t.Fatalf("experiment %s printed different tables on a second pass, line %d:\nfirst:  %q\nsecond: %q", id, i+1, fl[i], sl[i])
	}
}

var update = flag.Bool("update", false, "rewrite testdata goldens from this run")

// checkGolden compares got with the golden file, or rewrites the file under
// -update. A modeled figure that moves is a change to the reproduction, so
// it must show up in the diff of a regenerated golden.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with go test -run TestAllExperimentsRunQuick -update)", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		i := 0
		for i < len(gl)-1 && i < len(wl)-1 && gl[i] == wl[i] {
			i++
		}
		t.Fatalf("modeled tables differ from %s at line %d:\n got: %q\nwant: %q\n(regenerate with -update if the change is intended)", path, i+1, gl[i], wl[i])
	}
}

func TestFindExperiment(t *testing.T) {
	if _, ok := Find("fig2a"); !ok {
		t.Fatal("fig2a missing")
	}
	if _, ok := Find("bogus"); ok {
		t.Fatal("bogus found")
	}
}

// paxbench_paper.txt is `paxbench -experiment all -scale paper` as committed:
// its "=== id (paper): description" headers are the registry, in order.
func TestPaperOutputListsTheRegistry(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "..", "paxbench_paper.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range strings.Split(string(blob), "\n") {
		if strings.HasPrefix(line, "=== ") {
			got = append(got, line)
		}
	}
	var want []string
	for _, e := range Experiments() {
		want = append(want, fmt.Sprintf("=== %s (%s): %s", e.ID, e.Paper, e.Desc))
	}
	for i := 0; i < len(got) || i < len(want); i++ {
		if i >= len(got) || i >= len(want) || got[i] != want[i] {
			t.Fatalf("paxbench_paper.txt has %d experiment headers, the registry %d; they part at header %d: file %q, registry %q (regenerate the file with paxbench -experiment all -scale paper)",
				len(got), len(want), i+1, at(got, i), at(want, i))
		}
	}
}

// at returns s[i], or "" past its end.
func at(s []string, i int) string {
	if i < len(s) {
		return s[i]
	}
	return ""
}

func TestFig2aShape(t *testing.T) {
	cfg := TestConfig()
	sz := Sizes{Keys: 2000, MeasureOps: 2000, PersistEvery: 500, Threads: []int{1}}
	tables := Fig2a(cfg, sz)
	out := tables[0].String()
	for _, want := range []string{"DRAM", "PM via CXL", "PM via Enzian", "amat_ns"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig2a table missing %q:\n%s", want, out)
		}
	}
}

func TestWriteAmplificationShape(t *testing.T) {
	cfg := TestConfig()
	tables := WriteAmplification(cfg, QuickSizes())
	out := tables[0].String()
	if !strings.Contains(out, "one-per-page") {
		t.Fatalf("missing pattern rows:\n%s", out)
	}
	// For the sparse pattern the page tracker must amplify far more than
	// PAX; spot-check by re-measuring directly.
	pf := mustBuild(PageFault, cfg)
	base := cfg.LogSize + cfg.DataSize/2
	stored := storePattern(pf.RawMem, base, 1<<18, "one-per-page")
	pf.Persist()
	wa := float64(pf.LoggedBytes()) / float64(stored)
	if wa < 100 {
		t.Fatalf("page-fault sparse write amplification = %.0f, want ≥ 100", wa)
	}
}
