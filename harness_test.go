package neesgrid

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
	"testing"
)

// builderFuncs are what code would call to build topology of its own —
// listen, dial a site's container, or make an NTCP client — each with the
// directories whose non-test code may call it. Sites, runs and their obs
// planes are built in internal/most; every TCP listener is a
// runtime.ConnServer, a runtime.DebugServer or the OGSI container. A
// package may also call its own builder (core.NewClient wraps
// NewClientWithTelemetry).
var builderFuncs = map[string][]string{
	"net.Listen":                                    {"internal/runtime/", "internal/ogsi/"},
	"neesgrid/internal/ogsi.NewClient":              {"internal/most/"},
	"neesgrid/internal/core.NewClientWithTelemetry": {"internal/most/"},
}

// TestBinariesBuildThroughInternal holds non-test code of the module (bench/
// is a module of its own) to the one builder: builderFuncs are called only
// where they are allowed, and obs.Source literals are written only in
// internal/most (most.ObsSources lists a process's sources).
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
// definitions under cmd/ plus the exported fields of internal/ structs named
// *Config or *Options. It may only fall; lower it in the change that removes
// a value.
const settableCeiling = 157

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
	flags := 0
	for i, info := range l.infos {
		for _, f := range l.files[i] {
			if !l.inCmd(f.Pos()) {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if fn := calledFunc(info, call); fn != nil && fn.Pkg().Path() == "flag" && flagDefiners[fn.Name()] {
						flags++
					}
				}
				return true
			})
		}
	}
	fields := 0
	for path, p := range l.pkgs {
		if !strings.HasPrefix(path, modulePath+"/internal/") {
			continue
		}
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || l.isTestFile(tn.Pos()) ||
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
	total := flags + fields
	t.Logf("%d settable values: %d flags under cmd/, %d exported *Config/*Options fields in internal/", total, flags, fields)
	switch {
	case total > settableCeiling:
		t.Errorf("%d settable values (%d flags, %d fields), over the ceiling of %d: a new value needs one removed", total, flags, fields, settableCeiling)
	case total < settableCeiling:
		t.Errorf("%d settable values, under the ceiling of %d: lower settableCeiling to %d", total, settableCeiling, total)
	}
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
