// Package lint is a repo-local static-analysis framework that
// mechanically enforces the runtime's concurrency, ownership, and
// protocol invariants — the same philosophy the paper applies to user
// programs (§3.3, §5.1: check correctness conditions with a solver
// instead of trusting the programmer), turned on this repo's own
// runtime.
//
// The framework is stdlib-only (go/ast + go/types, no x/tools): a
// loader parses and type-checks the whole module once (load.go), every
// Analyzer walks the typed syntax of each package (packages are
// analyzed in parallel; a ModuleAnalyzer sees all packages at once for
// cross-package invariants), and findings are reported as
// file:line:col diagnostics. Two front ends share the driver:
// `go run ./cmd/plvet ./...` (non-zero exit on any finding, gating CI
// via `make lint` inside `make check`; `-json` emits a findings
// artifact) and the package's own tests (lint_test.go), so
// `go test ./...` alone also enforces the invariants.
//
// A finding can be suppressed at the site with an explanation:
//
//	foo = bar() //plvet:ignore recycle the pool is drained here
//
// The directive must name the analyzer it silences and carry a reason;
// it applies to findings on its own line or, for a directive alone on
// a line, the line below. Suppressed findings are counted and reported
// separately so a suppression is never silent.
//
// The shipped analyzers encode contracts that the race detector and
// the chaos suite can only catch probabilistically, if the failing
// schedule or fault happens to run:
//
//   - recycle:    a pooled transport.KV batch must not be touched after
//     PutBatch or after it is handed to Send (batch.go's contract) —
//     including through a helper call, via bottom-up interprocedural
//     summaries.
//   - atomicmix:  a word accessed through sync/atomic (or the repo's
//     atomic wrappers) must never also be read or written plainly.
//   - lockblock:  no channel operation, transport Send, time.Sleep, or
//     foreign-lock Cond.Wait while a sync.Mutex/RWMutex is held; no
//     re-acquiring a lock already held.
//   - kindswitch: a switch over an enum-like constant family
//     (transport.Kind, runtime.Mode, ...) must cover every declared
//     constant or carry an explicit default.
//   - metricname: every metric name registered or read anywhere in the
//     module must appear in the metrics.WellKnownNames manifest, be
//     registered exactly once, and be written by someone if read.
//   - condwait:   sync.Cond discipline — conds are built with NewCond
//     and Wait runs inside a for loop.
package lint

import (
	"fmt"
	"go/token"
	"sort"
	"sync"
)

// Finding is one diagnostic produced by an analyzer.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Message, f.Analyzer)
}

// Analyzer is one registered invariant check. Implementations must be
// stateless across packages: Check is called once per analysis unit,
// possibly concurrently with other packages.
type Analyzer interface {
	// Name is the analyzer's short identifier (used in findings, the
	// plvet -only flag, and //plvet:ignore directives).
	Name() string
	// Doc is a one-line description of the enforced invariant.
	Doc() string
	// Check inspects one type-checked package and reports findings.
	Check(pkg *Package, r *Reporter)
}

// ModuleAnalyzer is an Analyzer whose invariant spans packages (e.g.
// the metric-name registry, or call summaries crossing package
// boundaries). The driver calls CheckModule once with every analysis
// unit instead of calling Check per package; Check remains usable on a
// single package (fixtures).
type ModuleAnalyzer interface {
	Analyzer
	CheckModule(pkgs []*Package, r *Reporter)
}

// Reporter collects findings on behalf of one (package, analyzer) run.
type Reporter struct {
	analyzer string
	fset     *token.FileSet
	findings *[]Finding
}

// Reportf records a finding at pos.
func (r *Reporter) Reportf(pos token.Pos, format string, args ...any) {
	*r.findings = append(*r.findings, Finding{
		Analyzer: r.analyzer,
		Pos:      r.fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzers returns every registered analyzer, in reporting order.
func Analyzers() []Analyzer {
	return []Analyzer{
		recycleAnalyzer{},
		atomicmixAnalyzer{},
		lockblockAnalyzer{},
		kindswitchAnalyzer{},
		metricnameAnalyzer{},
		condwaitAnalyzer{},
	}
}

// ByName resolves a comma-separated analyzer selection ("" = all).
func ByName(names []string) ([]Analyzer, error) {
	all := Analyzers()
	if len(names) == 0 {
		return all, nil
	}
	byName := map[string]Analyzer{}
	for _, a := range all {
		byName[a.Name()] = a
	}
	var out []Analyzer
	for _, n := range names {
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("lint: unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// Result is one driver run's outcome: the findings that stand, and the
// ones silenced by //plvet:ignore directives (still surfaced so a
// suppression is never invisible). Both slices are position-sorted.
type Result struct {
	Findings   []Finding
	Suppressed []Finding
}

// Run applies the analyzers to every analysis unit of the module —
// per-package analyzers fan out over a goroutine per unit, module
// analyzers run once over all units — then applies the module's
// //plvet:ignore directives and returns both kept and suppressed
// findings sorted by position.
func Run(mod *Module, analyzers []Analyzer) Result {
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		findings []Finding
	)
	collect := func(local []Finding) {
		mu.Lock()
		findings = append(findings, local...)
		mu.Unlock()
	}

	var perPkg []Analyzer
	for _, a := range analyzers {
		if ma, ok := a.(ModuleAnalyzer); ok {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var local []Finding
				ma.CheckModule(mod.Pkgs, &Reporter{analyzer: ma.Name(), fset: mod.Fset, findings: &local})
				collect(local)
			}()
			continue
		}
		perPkg = append(perPkg, a)
	}
	for _, pkg := range mod.Pkgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []Finding
			for _, a := range perPkg {
				a.Check(pkg, &Reporter{analyzer: a.Name(), fset: mod.Fset, findings: &local})
			}
			collect(local)
		}()
	}
	wg.Wait()

	ignores, bad := collectIgnores(mod)
	findings = append(findings, bad...)
	res := applyIgnores(findings, ignores)
	sortFindings(res.Findings)
	sortFindings(res.Suppressed)
	return res
}

func sortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}
