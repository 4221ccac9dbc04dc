package pax_test

// End-to-end tests of the command-line tools: build each binary, run it
// against a real pool file, and check its output — the closest thing to a
// user's shell session.

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
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

// Every function declared in a non-test internal/ file is linked into a
// shipped binary (the commands, bench and the examples), or is listed in
// testdata/unreached.txt with its reason: test support, or public API that
// the root package exposes and no binary calls. Code that no binary runs
// claims behaviour that no figure or binary exercises. An entry that is now
// linked, or that names nothing, fails too, so the list cannot rot.
func TestEveryInternalFunctionIsLinked(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	// The matcher first: a linker symbol and its declaration must get the
	// same name, generic instantiations and value receivers included.
	for _, c := range []struct{ pkg, sym, decl, want string }{
		{"cxl", "pax/internal/cxl.NewLink", "func NewLink() {}", "cxl.NewLink"},
		{"cxl", "pax/internal/cxl.(*Link).ToDevice", "func (l *Link) ToDevice() {}", "cxl.(*Link).ToDevice"},
		{"cxl", "pax/internal/cxl.Message.WireBytes", "func (m Message) WireBytes() int { return 0 }", "cxl.Message.WireBytes"},
		{"server", "pax/internal/server.(*ring[go.shape.struct { pax/internal/server.a int }]).push",
			"func (r *ring[T]) push(v T) {}", "server.(*ring).push"},
		{"server", "pax/internal/server.ordered[go.shape.uint64]", "func ordered[K cmp.Ordered](m map[K]int) []K { return nil }", "server.ordered"},
		{"baselines/wal", "pax/internal/baselines/wal.pair[go.shape.int,go.shape.string].key",
			"func (p pair[K, V]) key() K { var k K; return k }", "baselines/wal.pair.key"},
	} {
		if got := symbolName(c.sym); got != c.want {
			t.Errorf("symbolName(%q) = %q, want %q", c.sym, got, c.want)
		}
		file, err := parser.ParseFile(token.NewFileSet(), "", "package p\n"+c.decl, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := declName(c.pkg, file.Decls[0].(*ast.FuncDecl)); got != c.want {
			t.Errorf("declName(%q) = %q, want %q", c.decl, got, c.want)
		}
	}

	root := repoRoot(t)
	dir := t.TempDir()
	// No inlining in this module's packages, so that every function a binary
	// reaches keeps its symbol. all=-l would rebuild the standard library.
	build := exec.Command("go", "build", "-gcflags=pax/...=-l", "-o", dir+string(filepath.Separator),
		"./cmd/...", "./bench", "./examples/...")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building the shipped binaries: %v\n%s", err, out)
	}
	bins, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	linked := map[string]bool{}
	for _, bin := range bins {
		out, err := exec.Command("go", "tool", "nm", filepath.Join(dir, bin.Name())).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", bin.Name(), err)
		}
		for _, line := range strings.Split(string(out), "\n") {
			f := strings.Fields(line)
			if len(f) == 3 && (f[1] == "T" || f[1] == "t") && strings.HasPrefix(f[2], internalPrefix) {
				linked[symbolName(f[2])] = true
			}
		}
	}
	if len(linked) == 0 {
		t.Fatal("no internal function symbols in the shipped binaries")
	}

	allow := readAllowlist(t, filepath.Join(root, "testdata", "unreached.txt"))
	used := make([]bool, len(allow))
	fset := token.NewFileSet()
	err = filepath.WalkDir(filepath.Join(root, "internal"), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(filepath.Join(root, "internal"), filepath.Dir(path))
		if err != nil {
			return err
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			name := declName(filepath.ToSlash(rel), fn)
			if linked[name] {
				continue
			}
			if i := allowed(allow, name); i >= 0 {
				used[i] = true
				continue
			}
			t.Errorf("%s (%s) is linked by no shipped binary: delete it, or list it in testdata/unreached.txt with its reason",
				name, fset.Position(fn.Pos()))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range allow {
		if !used[i] {
			t.Errorf("testdata/unreached.txt: %q covers no unreached function; it is linked now or gone, so drop the entry", a)
		}
	}
}

const internalPrefix = "pax/internal/"

// symbolName turns a linker symbol into the name declName gives its
// declaration: the module prefix goes, and so do type arguments, so that
// every instantiation of a generic function or method is its declaration.
func symbolName(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range strings.TrimPrefix(sym, internalPrefix) {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// declName names a function declared in package pkg (a path under internal/)
// as the linker does: pkg.F, pkg.(*T).M, or pkg.T.M for a value receiver.
func declName(pkg string, fn *ast.FuncDecl) string {
	if fn.Recv == nil {
		return pkg + "." + fn.Name.Name
	}
	typ := fn.Recv.List[0].Type
	star, ok := typ.(*ast.StarExpr)
	if ok {
		typ = star.X
	}
	switch g := typ.(type) {
	case *ast.IndexExpr:
		typ = g.X
	case *ast.IndexListExpr:
		typ = g.X
	}
	recv := typ.(*ast.Ident).Name
	if star != nil {
		recv = "(*" + recv + ")"
	}
	return pkg + "." + recv + "." + fn.Name.Name
}

// maxUnreached bounds testdata/unreached.txt: test support and root API are
// the only reasons to keep code no binary runs, and both stay small.
const maxUnreached = 40

// readAllowlist reads the prefixes of testdata/unreached.txt, one
// "prefix<TAB>reason" a line.
func readAllowlist(t *testing.T, path string) []string {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var prefixes []string
	for i, line := range strings.Split(strings.TrimSuffix(string(blob), "\n"), "\n") {
		prefix, reason, _ := strings.Cut(line, "\t")
		if prefix == "" || (reason != "test support" && reason != "public API behind root pax") {
			t.Fatalf("%s:%d: %q: want \"prefix<TAB>test support\" or \"prefix<TAB>public API behind root pax\"", path, i+1, line)
		}
		prefixes = append(prefixes, prefix)
	}
	if len(prefixes) > maxUnreached {
		t.Fatalf("%s has %d entries, more than %d", path, len(prefixes), maxUnreached)
	}
	return prefixes
}

// allowed returns the index of the prefix that covers name, or -1. A prefix
// covers the function it names and, when it names a type, every method of
// that type, pointer receiver or not.
func allowed(prefixes []string, name string) int {
	unstar := strings.NewReplacer("(*", "", ")", "")
	for i, p := range prefixes {
		if name == p || strings.HasPrefix(unstar.Replace(name), unstar.Replace(p)+".") {
			return i
		}
	}
	return -1
}
