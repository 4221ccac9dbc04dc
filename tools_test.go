package pax_test

// End-to-end tests of the command-line tools: build each binary, run it
// against a real pool file, and check its output — the closest thing to a
// user's shell session.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
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

	// A header field that points outside the file is corruption: paxinspect
	// prints INVALID and exits 1 instead of indexing with it.
	img, err := os.ReadFile(poolPath)
	if err != nil {
		t.Fatal(err)
	}
	logCapacity := binary.LittleEndian.Uint64(img[24:]) + 16
	brk := binary.LittleEndian.Uint64(img[40:]) + 24
	for _, c := range []struct {
		field  string
		off, v uint64
	}{
		{"log offset", 24, 1 << 40},
		{"log size", 32, 1 << 62},
		{"data offset", 40, 1 << 40},
		{"data size", 48, 1 << 62},
		{"log capacity", logCapacity, 1 << 40},
		{"allocator brk", brk, 16},
	} {
		bad := filepath.Join(t.TempDir(), "bad.pool")
		corrupt := append([]byte(nil), img...)
		binary.LittleEndian.PutUint64(corrupt[c.off:], c.v)
		if err := os.WriteFile(bad, corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		out, err := exec.Command(inspect, "-pool", bad).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(string(out), "INVALID") {
			t.Errorf("paxinspect on a corrupt %s: %v, want exit status 1 and INVALID:\n%s", c.field, err, out)
		}
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
		{"cxl", "pax/internal/cxl.Opcode.WireBytes", "func (o Opcode) WireBytes() int { return 0 }", "cxl.Opcode.WireBytes"},
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

	allow := readAllowlist(t, filepath.Join(root, "testdata", "unreached.txt"), maxUnreached)
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
const maxUnreached = 32

// readAllowlist reads the prefixes of an allowlist, one "prefix<TAB>reason" a
// line and at most max lines.
func readAllowlist(t *testing.T, path string, max int) []string {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var prefixes []string
	for i, line := range strings.Split(strings.TrimSuffix(string(blob), "\n"), "\n") {
		prefix, reason, _ := strings.Cut(line, "\t")
		if prefix == "" || (reason != "test support" && reason != "public API behind root pax") {
			t.Fatalf("%s:%d: %q: want \"name<TAB>test support\" or \"name<TAB>public API behind root pax\"", path, i+1, line)
		}
		prefixes = append(prefixes, prefix)
	}
	if len(prefixes) > max {
		t.Fatalf("%s has %d entries, more than %d", path, len(prefixes), max)
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

// Every field declared in a non-test internal/ or root file is read by
// shipped code (the non-test files of any package in the module, bench,
// the commands and the examples included), or is listed in
// testdata/unread.txt with its reason. A field that code only writes is a
// count or a copy that nothing consumes, and it costs its update on every
// event it counts. Exported fields of exported root types are public API
// and out of scope; an embedded field is a type's shape, not state. As with
// unreached.txt, an entry that names a read field, or no field, fails.
func TestEveryInternalFieldIsRead(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module")
	}
	// The classifier first. Each source declares struct T (or G) with one
	// field f; want is what the rest of the source does with it.
	const counter = `type counter struct{ v int64 }
func (c *counter) Inc() { c.v++ }
func (c *counter) CompareAndSwap(old, new int64) bool { return c.v == old }
`
	for _, c := range []struct{ name, src, want string }{
		{"assignment", "type T struct{ f int }\nfunc g(t *T) { t.f = 1 }", "written"},
		{"compound assignment", "type T struct{ f int }\nfunc g(t *T) { t.f += 2 }", "written"},
		{"increment", "type T struct{ f int }\nfunc g(t *T) { t.f++ }", "written"},
		{"keyed literal", "type T struct{ f, h int }\nvar _ = T{f: 1}", "written"},
		{"positional literal", "type T struct{ h, f int }\nvar _ = []*T{{1, 2}}", "written"},
		{"counter", counter + "type T struct{ f counter }\nfunc g(t *T) { t.f.Inc() }", "written"},
		{"compare and swap", counter + "type T struct{ f counter }\nfunc g(t *T) bool { return t.f.CompareAndSwap(0, 1) }", "read"},
		{"address", "type T struct{ f int }\nfunc g(t *T) *int { return &t.f }", "read"},
		{"value", "type T struct{ f int }\nfunc g(t T) int { return t.f }", "read"},
		{"index of a field", "type T struct{ f []int }\nfunc g(t *T) { t.f[0] = 1 }", "read"},
		{"struct tag", "type T struct{ f int `json:\"f\"` }\nfunc g(t *T) { t.f = 1 }", "read"},
		{"generic write", "type G[X any] struct{ f X }\nfunc g(x *G[int]) { x.f = 1 }", "written"},
		{"generic read", "type G[X any] struct{ f X }\nfunc g(x *G[int]) { x.f = 1 }\nfunc h(x G[string]) string { return x.f }", "read"},
		{"unused", "type T struct{ f int }", "unused"},
	} {
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, "", "package p\n"+c.src, 0)
		if err != nil {
			t.Fatal(err)
		}
		info := newFieldInfo()
		if _, err := (&types.Config{}).Check("p", fset, []*ast.File{file}, info); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		uses := map[*types.Var]*fieldUse{}
		useFields(info, []*ast.File{file}, uses)
		got := "unused"
		for id, obj := range info.Defs {
			if v, ok := obj.(*types.Var); ok && v.IsField() && id.Name == "f" {
				if u := uses[v]; u != nil && u.read {
					got = "read"
				} else if u != nil {
					got = "written"
				}
			}
		}
		if got != c.want {
			t.Errorf("%s: f is %s, want %s", c.name, got, c.want)
		}
	}

	root := repoRoot(t)
	pkgs := checkModule(t, root)
	uses := map[*types.Var]*fieldUse{}
	for _, p := range pkgs {
		useFields(p.info, p.files, uses)
	}
	allow := readAllowlist(t, filepath.Join(root, "testdata", "unread.txt"), maxUnread)
	used := make([]bool, len(allow))
	for _, p := range pkgs {
		rel, inScope := strings.CutPrefix(p.path, internalPrefix)
		if p.path == "pax" {
			rel, inScope = "pax", true
		}
		if !inScope {
			continue
		}
		names := fieldNames(rel, p.files)
		for id, obj := range p.info.Defs {
			v, ok := obj.(*types.Var)
			if !ok || !v.IsField() || v.Embedded() {
				continue
			}
			name, ok := names[id.Pos()]
			if !ok {
				name = rel + "." + id.Name // a field of an unnamed struct type
			}
			owner, _, _ := strings.Cut(strings.TrimPrefix(name, rel+"."), ".")
			if rel == "pax" && v.Exported() && token.IsExported(owner) {
				continue
			}
			u := uses[v]
			if u != nil && u.read {
				continue
			}
			if i := slices.Index(allow, name); i >= 0 {
				used[i] = true
				continue
			}
			what := "is used nowhere"
			if u != nil {
				what = "is written (" + p.fset.Position(u.wrote).String() + ") and read nowhere"
			}
			t.Errorf("%s (%s) %s in shipped code: delete it, or list it in testdata/unread.txt with its reason",
				name, p.fset.Position(id.Pos()), what)
		}
	}
	for i, a := range allow {
		if !used[i] {
			t.Errorf("testdata/unread.txt: %q names no unread field; it is read now or gone, so drop the entry", a)
		}
	}
}

// maxUnread bounds testdata/unread.txt, for the same reasons as maxUnreached.
const maxUnread = 8

// checkedPackage is one of the module's packages, type-checked from its
// non-test files.
type checkedPackage struct {
	path  string
	fset  *token.FileSet
	files []*ast.File
	info  *types.Info
}

// checkModule type-checks every package of the module, in dependency order,
// with the standard library read from the build cache's export data.
func checkModule(t *testing.T, root string) []checkedPackage {
	t.Helper()
	list := exec.Command("go", "list", "-export", "-deps", "-json", "./...")
	list.Dir = root
	var stderr bytes.Buffer
	list.Stderr = &stderr
	out, err := list.Output()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, stderr.Bytes())
	}
	fset := token.NewFileSet()
	exports := map[string]string{}
	checked := map[string]*types.Package{}
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return std.Import(path)
	})}
	var pkgs []checkedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p struct {
			ImportPath, Dir, Export string
			Standard                bool
			GoFiles                 []string
		}
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		if p.Standard {
			exports[p.ImportPath] = p.Export
			continue
		}
		cp := checkedPackage{path: p.ImportPath, fset: fset, info: newFieldInfo()}
		for _, name := range p.GoFiles {
			file, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			cp.files = append(cp.files, file)
		}
		if checked[p.ImportPath], err = conf.Check(p.ImportPath, fset, cp.files, cp.info); err != nil {
			t.Fatalf("type-checking %s: %v", p.ImportPath, err)
		}
		pkgs = append(pkgs, cp)
	}
	return pkgs
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func newFieldInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
}

// fieldUse is what code does with one field: where it first writes it, and
// whether anything reads it.
type fieldUse struct {
	wrote token.Pos
	read  bool
}

// writeMethods update the instrument they are called on; calling one on a
// field writes the field. Every other method call reads it.
var writeMethods = map[string]bool{
	"Inc": true, "Add": true, "Store": true, "StoreMax": true, "Reset": true, "Observe": true, "Since": true,
}

// useFields records in uses what files do with each struct field. A write is
// the left side of an assignment or an ++/--, a composite-literal element,
// or the receiver of a write method; a struct tag, and every other use,
// reads the field. An instantiated generic field counts as its declaration.
func useFields(info *types.Info, files []*ast.File, uses map[*types.Var]*fieldUse) {
	use := func(v *types.Var, at token.Pos, write bool) {
		v = v.Origin()
		u := uses[v]
		if u == nil {
			u = &fieldUse{}
			uses[v] = u
		}
		if write && u.wrote == token.NoPos {
			u.wrote = at
		}
		u.read = u.read || !write
	}
	field := func(e ast.Expr) *ast.SelectorExpr {
		s, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if ok && info.Selections[s] != nil && info.Selections[s].Kind() == types.FieldVal {
			return s
		}
		return nil
	}
	writes := map[*ast.SelectorExpr]bool{}
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if s := field(lhs); s != nil {
						writes[s] = true
					}
				}
			case *ast.IncDecStmt:
				if s := field(n.X); s != nil {
					writes[s] = true
				}
			case *ast.SelectorExpr:
				if m := info.Selections[n]; m != nil && m.Kind() == types.MethodVal && writeMethods[n.Sel.Name] {
					if s := field(n.X); s != nil {
						writes[s] = true
					}
				}
			case *ast.CompositeLit:
				typ := info.Types[n].Type
				if ptr, ok := typ.(*types.Pointer); ok {
					typ = ptr.Elem()
				}
				st, ok := typ.Underlying().(*types.Struct)
				if !ok {
					break
				}
				for i, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						use(info.Uses[kv.Key.(*ast.Ident)].(*types.Var), kv.Pos(), true)
					} else {
						use(st.Field(i), elt.Pos(), true)
					}
				}
			case *ast.StructType:
				for _, f := range n.Fields.List {
					for _, id := range f.Names {
						if f.Tag != nil {
							use(info.Defs[id].(*types.Var), f.Tag.Pos(), false)
						}
					}
				}
			}
			return true
		})
	}
	for s, sel := range info.Selections {
		if sel.Kind() == types.FieldVal {
			use(sel.Obj().(*types.Var), s.Sel.Pos(), writes[s])
		}
	}
}

// fieldNames names each field declared in a named struct type of files,
// keyed by the position of its name: pkg.Type.field, and
// pkg.Type.field.inner for a field of an anonymous struct inside it.
func fieldNames(pkg string, files []*ast.File) map[token.Pos]string {
	names := map[token.Pos]string{}
	var walk func(prefix string, typ ast.Expr)
	walk = func(prefix string, typ ast.Expr) {
		ast.Inspect(typ, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, f := range st.Fields.List {
				for _, id := range f.Names {
					names[id.Pos()] = prefix + "." + id.Name
					walk(prefix+"."+id.Name, f.Type)
				}
			}
			return false
		})
	}
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			if spec, ok := n.(*ast.TypeSpec); ok {
				walk(pkg+"."+spec.Name.Name, spec.Type)
			}
			return true
		})
	}
	return names
}
