package neesgrid

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// testOnlyExports lists the exported names in internal/ that only tests use,
// each with the test that needs it and why it stays. The list may only
// shrink: a name leaves it when it gains a caller or is deleted, and
// TestEveryExportHasACaller fails on an entry that has gone stale. A helper
// only one package's tests use belongs in that package's _test.go files, not
// here.
var testOnlyExports = map[string]string{
	// Capabilities kept for a cited claim or result, each waiting on the
	// ROADMAP item that gives it a binary user.
	"structural.NewAlphaOS":          "BenchmarkAblationIntegrators (EXPERIMENTS.md ablations; DESIGN.md §5 item 5), TestAlphaOSDistributed; no spec selects it until a binary does",
	"gridftp.Client.Resume":          "TestKilledStripeClosesItsSession; E9's restart markers, user in ROADMAP item 1(c) (repod restart)",
	"gridftp.Client.Status":          "TestResumeAfterInterruptedUpload; E9's restart markers, user in ROADMAP item 1(c)",
	"gridftp.Client.PutWithID":       "TestResumeAfterInterruptedUpload; E9's restart markers, user in ROADMAP item 1(c)",
	"ogsi.Client.FindServiceData":    "TestFindServiceDataRemote; PAPER.md §1 item 2 (inspection), user in ROADMAP item 11(f) (mostctl inspect)",
	"ogsi.Client.LastChanged":        "TestLastChangedRemote; PAPER.md §1 item 2 (inspection), user in ROADMAP item 11(f)",
	"ogsi.Client.WatchServiceData":   "TestRemoteObserverWatchesTransactions; PAPER.md §1 item 2 (inspection), user in ROADMAP item 11(f)",
	"ogsi.Client.RequestTermination": "TestRequestTerminationRemote; PAPER.md §1 item 2 (soft-state lifetimes), user in ROADMAP item 11(f)",
	"gsi.Credential.Delegate":        "TestDelegateProxy, BenchmarkAblationGSISigning; PAPER.md §1 item 2 (delegation); no daemon delegates yet",

	// Accessors and fixtures that tests in more than one package need.
	"control.Rig.Applied":                     "TestRigApplyMeasuresSpecimenForce, TestXPCPluginExecuteEndsWithItsContext: commands the rig executed",
	"core.Client.Get":                         "TestClientGetOverNetwork, TestPipelinedExecuteFaultCancelsItsSpeculation: reads a record without side effects",
	"core.PluginFunc":                         "TestExecuteAtMostOnce, TestHumanApprovalPlugin: a plugin from a bare function",
	"faultnet.Injector.Calls":                 "TestInjectorFailNext, TestDistributedMatchesLocalExactly, TestBatchedEnvelopePaysInjectorOnce: envelopes that crossed the injector",
	"faultnet.LAN":                            "TestInjectorFailNext, BenchmarkE8NtcpLatencyLAN: the LAN delay profile",
	"obs.Aggregator.SiteSnapshot":             "TestJobCheckpointsToOneLog: one site's latest roll-up",
	"ogsi.LifetimeManager.Len":                "TestLifetimeRegisterAliveExpire, TestExpiryEmptiesTableFamilyAndIndex: the lifetime index's size",
	"ogsi.SDEStore.GetInto":                   "TestSDESetGet, TestTransactionSDEsPublished: an element's value decoded",
	"telemetry.Registry.Events":               "TestEventLogRingEviction, TestStopCancelsOverdueExecutionAndJournals: the registry's event log",
	"wirejson/wiretest.AgreeWithEncodingJSON": "TestStrictDecodersTakeTheirOwnEncoding, FuzzDecodeRequest: the oracle package of the codec tests",
}

// TestEveryExportHasACaller type-checks the module and the benchmark module,
// tests included, and holds every exported name declared in non-test
// internal/ code (package-level names, methods of named types, fields of
// named struct types) to having a caller outside tests. A method by which
// its type satisfies an interface is exempt (types.Implements decides), and
// a type named as its own methods' receiver, or a name used inside its own
// declaration, is not a caller.
func TestEveryExportHasACaller(t *testing.T) {
	start := time.Now()
	l := newExportLoader()
	if err := l.loadAll("."); err != nil {
		t.Fatal(err)
	}
	uses := l.countUses()
	declared := l.internalExports()
	ifaces, err := l.interfacesByMethod()
	if err != nil {
		t.Fatal(err)
	}

	names := make([]string, 0, len(declared))
	for name := range declared {
		names = append(names, name)
	}
	sort.Strings(names)
	var testOnly int
	for _, name := range names {
		obj := declared[name]
		u := uses[obj]
		reason, listed := testOnlyExports[name]
		switch {
		case u.nonTest > 0:
			if listed {
				t.Errorf("%s has a caller outside tests; remove its allow-list entry (%q)", name, reason)
			}
		case satisfiesInterface(obj, ifaces):
			if listed {
				t.Errorf("%s satisfies an interface and needs no allow-list entry", name)
			}
		case u.test == 0:
			t.Errorf("%s (%s) has no caller: delete it", name, l.fset.Position(obj.Pos()))
		case !listed:
			t.Errorf("%s (%s) is used only by tests in %s: delete the capability, give it a caller, move it into its package's tests, or allow-list it with the test that needs it", name, l.fset.Position(obj.Pos()), sortedKeys(u.testDirs))
		default:
			testOnly++
		}
	}
	for name := range testOnlyExports {
		if _, ok := declared[name]; !ok {
			t.Errorf("allow-list entry %s names nothing declared in internal/; remove it", name)
		}
	}
	t.Logf("%d packages, %d exported names in internal/, %d allow-listed as test-only, %v",
		len(l.pkgs), len(declared), testOnly, time.Since(start).Round(time.Millisecond))
}

// exportLoader type-checks every package of the source tree from source, each
// once with its in-package tests (Go forbids the import cycles that would make
// that ambiguous) and once more for its external tests.
type exportLoader struct {
	fset     *token.FileSet
	std      types.Importer
	build    map[string]*build.Package // by import path
	pkgs     map[string]*types.Package // checked, with in-package tests
	infos    []*types.Info
	loading  map[string]bool
	receiver map[*ast.Ident]bool     // type names in method receivers
	declSpan map[token.Pos]token.Pos // a declared name → the end of its declaration
}

const modulePath = "neesgrid"

func newExportLoader() *exportLoader {
	return &exportLoader{
		fset:     token.NewFileSet(),
		build:    map[string]*build.Package{},
		pkgs:     map[string]*types.Package{},
		loading:  map[string]bool{},
		receiver: map[*ast.Ident]bool{},
		declSpan: map[token.Pos]token.Pos{},
	}
}

// loadAll finds every package under root (the benchmark module in bench/
// included: its path, neesgrid/bench, sits inside this module's) and checks
// each with its tests.
func (l *exportLoader) loadAll(root string) error {
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(path, 0)
		if errors.As(err, new(*build.NoGoError)) {
			return nil
		}
		if err != nil {
			return err
		}
		imp := modulePath
		if path != root {
			imp += "/" + filepath.ToSlash(path)
		}
		l.build[imp] = bp
		return nil
	})
	if err != nil {
		return err
	}
	if err := l.stdImporter(); err != nil {
		return err
	}
	paths := make([]string, 0, len(l.build))
	for p := range l.build {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := l.load(p); err != nil {
			return err
		}
		if xtest := l.build[p].XTestGoFiles; len(xtest) > 0 {
			if _, err := l.check(p+"_test", l.build[p].Dir, xtest); err != nil {
				return err
			}
		}
	}
	return nil
}

// stdImporter reads the standard library from the compiler's export data,
// located for every imported package by one `go list -export` (the build
// cache holds it after any build), rather than type-checking it from source.
func (l *exportLoader) stdImporter() error {
	std := map[string]bool{}
	for _, bp := range l.build {
		for _, imps := range [][]string{bp.Imports, bp.TestImports, bp.XTestImports} {
			for _, imp := range imps {
				if !inModule(imp) {
					std[imp] = true
				}
			}
		}
	}
	args := []string{"list", "-export", "-f", "{{.ImportPath}}={{.Export}}"}
	for imp := range std {
		args = append(args, imp)
	}
	out, err := exec.Command(filepath.Join(build.Default.GOROOT, "bin", "go"), args...).Output()
	if err != nil {
		return fmt.Errorf("go list -export: %v", err)
	}
	exports := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if imp, file, ok := strings.Cut(line, "="); ok {
			exports[imp] = file
		}
	}
	l.std = importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	return nil
}

func inModule(path string) bool {
	return path == modulePath || strings.HasPrefix(path, modulePath+"/")
}

func (l *exportLoader) Import(path string) (*types.Package, error) {
	if inModule(path) {
		return l.load(path)
	}
	return l.std.Import(path)
}

func (l *exportLoader) load(path string) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, errors.New("import cycle through " + path)
	}
	l.loading[path] = true
	bp, ok := l.build[path]
	if !ok {
		return nil, fmt.Errorf("no package %s in the tree", path)
	}
	p, err := l.check(path, bp.Dir, append(bp.GoFiles, bp.TestGoFiles...))
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

func (l *exportLoader) check(path, dir string, names []string) (*types.Package, error) {
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		l.index(f)
		files = append(files, f)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: l}
	p, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	l.infos = append(l.infos, info)
	return p, nil
}

// index records the receiver type names of f's methods and the extent of
// each of its top-level function and type declarations.
func (l *exportLoader) index(f *ast.File) {
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			l.declSpan[d.Name.Pos()] = d.End()
			if d.Recv == nil {
				continue
			}
			for _, field := range d.Recv.List {
				typ := field.Type
				if star, ok := typ.(*ast.StarExpr); ok {
					typ = star.X
				}
				if id, ok := typ.(*ast.Ident); ok {
					l.receiver[id] = true
				}
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				if ts, ok := spec.(*ast.TypeSpec); ok {
					l.declSpan[ts.Name.Pos()] = ts.End()
				}
			}
		}
	}
}

type useCount struct {
	nonTest, test int
	testDirs      map[string]bool // the directories of the test files that use it
}

// countUses tallies, for every object, its uses from test files and from the
// rest, leaving out receivers and uses inside the object's own declaration.
func (l *exportLoader) countUses() map[types.Object]useCount {
	uses := map[types.Object]useCount{}
	for _, info := range l.infos {
		for id, obj := range info.Uses {
			if l.receiver[id] {
				continue
			}
			if end, ok := l.declSpan[obj.Pos()]; ok && id.Pos() > obj.Pos() && id.Pos() < end {
				continue
			}
			u := uses[obj]
			if l.isTestFile(id.Pos()) {
				u.test++
				if u.testDirs == nil {
					u.testDirs = map[string]bool{}
				}
				u.testDirs[filepath.Dir(l.fset.File(id.Pos()).Name())] = true
			} else {
				u.nonTest++
			}
			uses[obj] = u
		}
	}
	return uses
}

func (l *exportLoader) isTestFile(pos token.Pos) bool {
	return strings.HasSuffix(l.fset.File(pos).Name(), "_test.go")
}

// internalExports names every exported object declared in non-test code
// under internal/: "pkg.Name", "pkg.Type.Method", "pkg.Type.Field".
func (l *exportLoader) internalExports() map[string]types.Object {
	out := map[string]types.Object{}
	prefix := modulePath + "/internal/"
	for path, p := range l.pkgs {
		if !strings.HasPrefix(path, prefix) {
			continue
		}
		short := strings.TrimPrefix(path, prefix)
		scope := p.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() || l.isTestFile(obj.Pos()) {
				continue
			}
			out[short+"."+name] = obj
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() && !l.isTestFile(m.Pos()) {
					out[short+"."+name+"."+m.Name()] = m
				}
			}
			if st, ok := named.Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() && !f.Embedded() {
						out[short+"."+name+"."+f.Name()] = f
					}
				}
			}
		}
	}
	return out
}

// errorInterfaces declares the interfaces that no package scope does: error,
// and those that errors.Is, errors.As and errors.Unwrap assert at run time.
const errorInterfaces = `package errorinterfaces

type (
	Error      interface{ Error() string }
	Is         interface{ Is(error) bool }
	As         interface{ As(any) bool }
	Unwrap     interface{ Unwrap() error }
	UnwrapMany interface{ Unwrap() []error }
)
`

// interfacesByMethod indexes every named interface declared in non-test code
// of the tree or in a package it imports, and errorInterfaces, by the names
// of their methods.
func (l *exportLoader) interfacesByMethod() (map[string][]*types.Interface, error) {
	out := map[string][]*types.Interface{}
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || (tn.Pos().IsValid() && l.isTestFile(tn.Pos())) {
				continue
			}
			iface, ok := tn.Type().Underlying().(*types.Interface)
			if !ok {
				continue
			}
			for i := 0; i < iface.NumMethods(); i++ {
				m := iface.Method(i).Name()
				out[m] = append(out[m], iface)
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, p := range l.pkgs {
		walk(p)
	}
	f, err := parser.ParseFile(l.fset, "errorinterfaces.go", errorInterfaces, 0)
	if err != nil {
		return nil, err
	}
	p, err := new(types.Config).Check("errorinterfaces", l.fset, []*ast.File{f}, nil)
	if err != nil {
		return nil, err
	}
	walk(p)
	return out, nil
}

// satisfiesInterface reports whether obj is a method by which its receiver
// type (or a pointer to it) implements some interface that has it.
func satisfiesInterface(obj types.Object, ifaces map[string][]*types.Interface) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	for _, iface := range ifaces[fn.Name()] {
		if types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface) {
			return true
		}
	}
	return false
}

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
