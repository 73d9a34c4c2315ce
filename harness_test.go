package neesgrid

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unicode"
)

// builderFuncs are what code would call to build topology of its own —
// listen, dial a site's container, or make an NTCP client — each with the
// directories whose non-test code may call it. Sites, runs and their obs
// planes are built in internal/most; every TCP listener is a
// runtime.ConnServer or a runtime.HTTPServer. A package may also call its
// own builder (core.NewClient wraps NewClientWithTelemetry).
var builderFuncs = map[string][]string{
	"net.Listen":                                    {"internal/runtime/"},
	"neesgrid/internal/ogsi.NewClient":              {"internal/most/"},
	"neesgrid/internal/core.NewClientWithTelemetry": {"internal/most/"},
}

// dialNames are the net package's ways to open a TCP connection. Non-test
// code uses them only in internal/runtime: every dial goes through
// runtime.Dial, a runtime.ConnPool's included. A use is a call or any other
// reference: a function taken as a value, a Dialer literal or variable.
var dialNames = map[string]bool{"Dial": true, "DialTimeout": true, "Dialer": true}

// builderImports are packages whose import builds a surface of its own,
// each with the directories whose non-test code may import it: the
// profiles are served only by runtime.DebugMux.
var builderImports = map[string][]string{
	"net/http/pprof": {"internal/runtime/"},
}

// TestBinariesBuildThroughInternal holds non-test code of the module (bench/
// is a module of its own) to the one builder: builderFuncs are called,
// dialNames used and builderImports imported only where they are allowed,
// and obs.Source literals are written only in internal/most (most.ObsSources
// lists a process's sources).
func TestBinariesBuildThroughInternal(t *testing.T) {
	l := loadTree(t)
	for i, info := range l.infos {
		for _, f := range l.files[i] {
			name := filepath.ToSlash(l.fset.File(f.Pos()).Name())
			if strings.HasPrefix(name, "bench/") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			within := func(dirs ...string) bool {
				for _, dir := range dirs {
					if strings.HasPrefix(name, dir) {
						return true
					}
				}
				return false
			}
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				if dirs, ok := builderImports[path]; ok && !within(dirs...) {
					t.Errorf("%s: imports %s outside %s", l.fset.Position(imp.Pos()), path, strings.Join(dirs, ", "))
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					fn := calledFunc(info, n)
					if fn == nil || fn.Type().(*types.Signature).Recv() != nil {
						break
					}
					dirs, ok := builderFuncs[fn.Pkg().Path()+"."+fn.Name()]
					own := strings.TrimPrefix(fn.Pkg().Path(), modulePath+"/") + "/"
					if ok && !within(dirs...) && !within(own) {
						t.Errorf("%s: %s.%s outside %s", l.fset.Position(n.Pos()), fn.Pkg().Name(), fn.Name(), strings.Join(dirs, ", "))
					}
				case *ast.Ident:
					// Methods are not caught here: (*net.Dialer).DialContext
					// needs a Dialer, and naming one is caught.
					switch obj := info.Uses[n].(type) {
					case *types.Func, *types.TypeName:
						if obj.Pkg() != nil && obj.Pkg().Path() == "net" && obj.Parent() == obj.Pkg().Scope() &&
							dialNames[obj.Name()] && !within("internal/runtime/") {
							t.Errorf("%s: net.%s outside internal/runtime/; dial through runtime.Dial or a runtime.ConnPool", l.fset.Position(n.Pos()), obj.Name())
						}
					}
				case *ast.CompositeLit:
					typ := n.Type
					if at, ok := typ.(*ast.ArrayType); ok {
						typ = at.Elt
					}
					if sel, ok := typ.(*ast.SelectorExpr); ok && !within("internal/most/") {
						if tn, ok := info.Uses[sel.Sel].(*types.TypeName); ok && tn.Pkg().Path() == "neesgrid/internal/obs" && tn.Name() == "Source" {
							t.Errorf("%s: an obs.Source literal outside internal/most; list sources with most.ObsSources", l.fset.Position(n.Pos()))
						}
					}
				}
				return true
			})
		}
	}
}

// settableCeiling bounds the values an operator or a caller can set: flag
// definitions in non-test code (cmd/, examples/ and runtime's GSIFlags and
// DebugFlags), the exported fields of internal/ structs
// named *Config or *Options, the With* option constructors of internal/,
// and the JSON-tagged fields of cmd/ structs (the coordinator's config
// file). It may only fall; lower it in the change that removes a value.
const settableCeiling = 185

// flagDefiners are the flag package's functions (and *FlagSet methods of the
// same names) that define a flag.
var flagDefiners = map[string]bool{
	"Bool": true, "BoolVar": true, "BoolFunc": true, "Duration": true, "DurationVar": true,
	"Float64": true, "Float64Var": true, "Func": true, "Int": true, "IntVar": true,
	"Int64": true, "Int64Var": true, "String": true, "StringVar": true, "TextVar": true,
	"Uint": true, "UintVar": true, "Uint64": true, "Uint64Var": true, "Var": true,
}

func TestSettableValuesOnlyFall(t *testing.T) {
	l := loadTree(t)
	flags, jsonFields := 0, 0
	for i, info := range l.infos {
		for _, f := range l.files[i] {
			name := filepath.ToSlash(l.fset.File(f.Pos()).Name())
			if strings.HasPrefix(name, "bench/") || l.isTestFile(f.Pos()) {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					if fn := calledFunc(info, n); fn != nil && fn.Pkg().Path() == "flag" && flagDefiners[fn.Name()] {
						flags++
					}
				case *ast.Field:
					if n.Tag == nil || !l.inCmd(n.Pos()) {
						break
					}
					tag, _ := strconv.Unquote(n.Tag.Value)
					if _, ok := reflect.StructTag(tag).Lookup("json"); ok {
						jsonFields += max(len(n.Names), 1)
					}
				}
				return true
			})
		}
	}
	fields, options := 0, 0
	for path, p := range l.pkgs {
		if !strings.HasPrefix(path, modulePath+"/internal/") {
			continue
		}
		for _, name := range p.Scope().Names() {
			obj := p.Scope().Lookup(name)
			if l.isTestFile(obj.Pos()) {
				continue
			}
			if _, ok := obj.(*types.Func); ok && isWithOption(name) {
				options++
				continue
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() ||
				!strings.HasSuffix(name, "Config") && !strings.HasSuffix(name, "Options") {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if st.Field(i).Exported() {
					fields++
				}
			}
		}
	}
	total := flags + fields + options + jsonFields
	t.Logf("%d settable values: %d flag definitions, %d exported *Config/*Options fields and %d With* options in internal/, %d JSON-tagged fields in cmd/",
		total, flags, fields, options, jsonFields)
	switch {
	case total > settableCeiling:
		t.Errorf("%d settable values, over the ceiling of %d: a new value needs one removed", total, settableCeiling)
	case total < settableCeiling:
		t.Errorf("%d settable values, under the ceiling of %d: lower settableCeiling to %d", total, settableCeiling, total)
	}
}

// isWithOption reports whether name is an option constructor: With
// followed by an upper-case letter.
func isWithOption(name string) bool {
	rest, ok := strings.CutPrefix(name, "With")
	return ok && rest != "" && unicode.IsUpper(rune(rest[0]))
}

// inCmd reports whether pos is in non-test code under cmd/.
func (l *exportLoader) inCmd(pos token.Pos) bool {
	name := filepath.ToSlash(l.fset.File(pos).Name())
	return strings.HasPrefix(name, "cmd/") && !strings.HasSuffix(name, "_test.go")
}

// calledFunc is the function or method a call names, or nil.
func calledFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return nil
	}
	return fn
}
