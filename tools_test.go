package pax_test

// End-to-end tests of the command-line tools: build each binary, run it
// against a real pool file, and check its output — the closest thing to a
// user's shell session.

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"pax"
)

func buildTool(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Dir = repoRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

func repoRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return wd
}

func TestInspectAndRecoverTools(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	inspect := buildTool(t, dir, "paxinspect")
	recover := buildTool(t, dir, "paxrecover")

	// Build a pool with durable data plus an unpersisted epoch.
	poolPath := filepath.Join(dir, "tool.pool")
	pool, err := pax.MapPool(poolPath, pax.Options{DataSize: 1 << 20, LogSize: 1 << 20, HBMSize: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := pax.NewMap(pool, 0)
	m.Put([]byte("durable"), []byte("yes"))
	pool.Persist()
	m.Put([]byte("open-epoch"), []byte("dies"))
	// Force some open-epoch state onto media, then crash.
	pool.Internal().Hierarchy().FlushAll(0)
	pool.Close()

	// Inspect: must show the pool geometry, the durable epoch, and warn
	// about live log entries.
	out, err := exec.Command(inspect, "-pool", poolPath).CombinedOutput()
	if err != nil {
		t.Fatalf("paxinspect: %v\n%s", err, out)
	}
	text := string(out)
	for _, want := range []string{"durable epoch", "undo log", "allocator", "roots", "slot  0"} {
		if !strings.Contains(text, want) {
			t.Fatalf("paxinspect output missing %q:\n%s", want, text)
		}
	}
	if !strings.Contains(text, "live entries") {
		t.Fatalf("paxinspect did not report log state:\n%s", text)
	}

	// Recover (dry run first: file must not change).
	before, _ := os.ReadFile(poolPath)
	out, err = exec.Command(recover, "-pool", poolPath, "-dry-run").CombinedOutput()
	if err != nil {
		t.Fatalf("paxrecover dry-run: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "dry run") {
		t.Fatalf("dry-run output: %s", out)
	}
	after, _ := os.ReadFile(poolPath)
	if string(before) != string(after) {
		t.Fatal("dry run modified the pool")
	}

	// Real recovery rewrites the file; the recovered pool then opens with
	// nothing left to roll back.
	out, err = exec.Command(recover, "-pool", poolPath).CombinedOutput()
	if err != nil {
		t.Fatalf("paxrecover: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "recovered in place") {
		t.Fatalf("recover output: %s", out)
	}
	pool2, err := pax.OpenPool(poolPath, pax.Options{DataSize: 1 << 20, LogSize: 1 << 20, HBMSize: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer pool2.Close()
	if pool2.Recovery().LinesRolledBack != 0 {
		t.Fatalf("offline-recovered pool still rolled back %d lines", pool2.Recovery().LinesRolledBack)
	}
	m2, _ := pax.NewMap(pool2, 0)
	if _, ok := m2.Get([]byte("durable")); !ok {
		t.Fatal("durable entry lost")
	}
	if _, ok := m2.Get([]byte("open-epoch")); ok {
		t.Fatal("open-epoch entry survived offline recovery")
	}
}

func TestBenchToolQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	bench := buildTool(t, dir, "paxbench")

	out, err := exec.Command(bench, "-list").CombinedOutput()
	if err != nil {
		t.Fatalf("paxbench -list: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "fig2a") || !strings.Contains(string(out), "ycsb") {
		t.Fatalf("experiment list incomplete:\n%s", out)
	}

	out, err = exec.Command(bench, "-experiment", "fig2a", "-scale", "quick").CombinedOutput()
	if err != nil {
		t.Fatalf("paxbench fig2a: %v\n%s", err, out)
	}
	for _, want := range []string{"Figure 2a", "PM via Enzian", "amat_ns"} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("fig2a output missing %q:\n%s", want, out)
		}
	}

	if out, err := exec.Command(bench, "-experiment", "nope").CombinedOutput(); err == nil {
		t.Fatalf("unknown experiment accepted:\n%s", out)
	}
}

// Every BENCH_loadgen.json row names the paxbench command and the commit that
// produced it, and today's paxbench still accepts that command: each row's
// arguments are parsed by the binary itself, with -h appended so a command
// that parses prints its usage instead of running the load. A row recorded
// with a flag that has since been deleted fails here.
func TestLoadgenLedgerRowsParse(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	blob, err := os.ReadFile(filepath.Join(repoRoot(t), "BENCH_loadgen.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rows []struct {
		Command string `json:"command"`
		Commit  string `json:"commit"`
	}
	if err := json.Unmarshal(blob, &rows); err != nil {
		t.Fatal(err)
	}
	bench := buildTool(t, t.TempDir(), "paxbench")
	for i, row := range rows {
		args, ok := strings.CutPrefix(row.Command, "paxbench ")
		if !ok || row.Commit == "" {
			t.Errorf("row %d: command %q, commit %q; want a paxbench command line and its commit", i, row.Command, row.Commit)
			continue
		}
		out, _ := exec.Command(bench, append(strings.Fields(args), "-h")...).CombinedOutput()
		if !strings.HasPrefix(string(out), "Usage of") {
			t.Errorf("row %d: today's paxbench rejects %q:\n%s", i, row.Command, out)
		}
	}
}

// Every flag a binary accepts has a row in that binary's flag table in
// cmd/README.md, and every row is a flag. The flag set is read off the
// binaries' own -h output, so a flag added without a row, or a row left
// behind by a removed flag, fails here rather than in a user's shell.
func TestEveryFlagIsDocumented(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	readme, err := os.ReadFile(filepath.Join(repoRoot(t), "cmd", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, name := range []string{"paxbench", "paxinspect", "paxrecover", "paxserve"} {
		_, section, ok := strings.Cut(string(readme), "\n## "+name+"\n")
		if !ok {
			t.Fatalf("cmd/README.md has no \"## %s\" section", name)
		}
		section, _, _ = strings.Cut(section, "\n## ")
		// -h makes the flag package print its usage and exit; the exit status
		// is not the point.
		usage, _ := exec.Command(buildTool(t, dir, name), "-h").CombinedOutput()
		flags := 0
		for _, line := range strings.Split(string(usage), "\n") {
			if !strings.HasPrefix(line, "  -") {
				continue
			}
			flags++
			flagName, _, _ := strings.Cut(strings.TrimPrefix(line, "  "), " ")
			if !strings.Contains(section, "| `"+flagName+"` |") {
				t.Errorf("%s %s has no row in cmd/README.md's %s flag table", name, flagName, name)
			}
		}
		if flags == 0 {
			t.Fatalf("%s -h listed no flags:\n%s", name, usage)
		}
		if rows := strings.Count(section, "\n| `-"); rows != flags {
			t.Errorf("%s: %d flag rows documented, the binary has %d flags", name, rows, flags)
		}
	}
}
