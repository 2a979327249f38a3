package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"sort"
	"strings"
)

// kindswitchAnalyzer enforces exhaustiveness for switches over
// enum-like constant families: transport.Kind, runtime.Mode, and every
// other module type that follows the same shape. When PR 7 grew
// transport.Kind by four message kinds, the only thing that caught a
// switch arm missing for one of them was runtime behavior — the exact silent-protocol-drift
// failure mode the paper's asynchronous modes cannot afford (a dropped
// marker kind corrupts convergence rather than crashing).
//
// A type T is an enum family when it is a defined integer type
// declared in this module whose package declares at least three
// constants of type T with distinct values forming a contiguous run
// (the iota shape). Any switch whose tag has type T must then either
// list every declared constant across its cases or carry an explicit
// default clause. A missing arm is reported with the names of the
// uncovered constants; a deliberate "handle the rest nowhere" needs a
// default (or a //plvet:ignore with a reason), which is precisely the
// visible annotation the invariant wants.
type kindswitchAnalyzer struct{}

func (kindswitchAnalyzer) Name() string { return "kindswitch" }
func (kindswitchAnalyzer) Doc() string {
	return "a switch over an enum-like constant family covers every constant or has a default"
}

// enumFamily is one enum-like type's declared constants.
type enumFamily struct {
	names  map[int64]string // value → first declared constant name
	values []int64          // sorted distinct values
}

// enumFamilyOf inspects T's declaring package scope and returns the
// constant family, or nil when T does not look like an enum: fewer
// than three constants, duplicate values (flag-style aliases), or a
// non-contiguous value set (bitmasks, sizes).
func enumFamilyOf(named *types.Named) *enumFamily {
	obj := named.Obj()
	if obj.Pkg() == nil {
		return nil
	}
	basic, ok := named.Underlying().(*types.Basic)
	if !ok || basic.Info()&types.IsInteger == 0 {
		return nil
	}
	fam := &enumFamily{names: map[int64]string{}}
	scope := obj.Pkg().Scope()
	for _, name := range scope.Names() {
		cst, isConst := scope.Lookup(name).(*types.Const)
		if !isConst || cst.Type() != named {
			continue
		}
		v, exact := constant.Int64Val(constant.ToInt(cst.Val()))
		if !exact {
			return nil
		}
		if _, dup := fam.names[v]; dup {
			return nil // aliased values: not a plain enum
		}
		fam.names[v] = name
		fam.values = append(fam.values, v)
	}
	if len(fam.values) < 3 {
		return nil
	}
	sort.Slice(fam.values, func(i, j int) bool { return fam.values[i] < fam.values[j] })
	for i := 1; i < len(fam.values); i++ {
		if fam.values[i] != fam.values[i-1]+1 {
			return nil // gaps: bitmask or sparse ids, not an iota enum
		}
	}
	return fam
}

func (kindswitchAnalyzer) Check(pkg *Package, r *Reporter) {
	// Scope the check to module-declared types (plus the analyzed
	// package itself, for fixtures outside the module tree): stdlib
	// integer families (reflect.Kind, ...) are not this repo's protocol
	// surface.
	inScope := func(path string) bool {
		mod := pkg.Mod.Path
		return path == mod || strings.HasPrefix(path, mod+"/") || path == pkg.ImportPath
	}
	families := map[*types.Named]*enumFamily{}
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			tv, ok := pkg.Info.Types[sw.Tag]
			if !ok {
				return true
			}
			named, ok := tv.Type.(*types.Named)
			if !ok || named.Obj().Pkg() == nil {
				return true
			}
			if !inScope(named.Obj().Pkg().Path()) {
				return true
			}
			fam, cached := families[named]
			if !cached {
				fam = enumFamilyOf(named)
				families[named] = fam
			}
			if fam == nil {
				return true
			}
			checkSwitch(pkg, r, sw, named, fam)
			return true
		})
	}
}

// checkSwitch verifies one switch statement against its tag's family.
func checkSwitch(pkg *Package, r *Reporter, sw *ast.SwitchStmt, named *types.Named, fam *enumFamily) {
	covered := map[int64]bool{}
	for _, cl := range sw.Body.List {
		cc, ok := cl.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			return // explicit default: the switch opts out of exhaustiveness
		}
		for _, e := range cc.List {
			tv, ok := pkg.Info.Types[e]
			if !ok || tv.Value == nil {
				return // non-constant case: coverage is not decidable
			}
			v, exact := constant.Int64Val(constant.ToInt(tv.Value))
			if !exact {
				return
			}
			covered[v] = true
		}
	}
	var missing []string
	for _, v := range fam.values {
		if !covered[v] {
			missing = append(missing, fam.names[v])
		}
	}
	if len(missing) > 0 {
		r.Reportf(sw.Pos(), "switch over %s.%s is not exhaustive: missing %s (add the cases or an explicit default)",
			named.Obj().Pkg().Name(), named.Obj().Name(), strings.Join(missing, ", "))
	}
}
