package lint

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// moduleOnce loads and type-checks the repo exactly once for all tests;
// the loader is the expensive part (it type-checks the stdlib
// dependencies from source).
var moduleOnce = sync.OnceValues(func() (*Module, error) {
	root, err := FindModuleRoot(".")
	if err != nil {
		return nil, err
	}
	return LoadModule(root)
})

// TestModuleClean is the same gate as `go run ./cmd/plvet ./...`: the
// repo itself must satisfy every invariant. This keeps plain
// `go test ./...` sufficient to enforce them.
func TestModuleClean(t *testing.T) {
	mod, err := moduleOnce()
	if err != nil {
		t.Fatal(err)
	}
	res := Run(mod, Analyzers())
	for _, f := range res.Findings {
		t.Errorf("%s", f)
	}
	// Suppressions in the real tree must be rare and deliberate; surface
	// them in test output so a new one is reviewed.
	for _, f := range res.Suppressed {
		t.Logf("suppressed: %s", f)
	}
}

// TestGoldenFixtures checks each analyzer against its seeded-violation
// fixture under testdata/src/<name>: every `// want "regex"` line must
// produce a matching finding, and no finding may appear on a line
// without one.
func TestGoldenFixtures(t *testing.T) {
	mod, err := moduleOnce()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range Analyzers() {
		t.Run(a.Name(), func(t *testing.T) {
			dir, err := filepath.Abs(filepath.Join("testdata", "src", a.Name()))
			if err != nil {
				t.Fatal(err)
			}
			pkg, err := mod.CheckExtra(dir, "plvet/fixture/"+a.Name())
			if err != nil {
				t.Fatal(err)
			}
			var findings []Finding
			a.Check(pkg, &Reporter{analyzer: a.Name(), fset: mod.Fset, findings: &findings})
			if len(findings) == 0 {
				t.Fatalf("analyzer %s produced no findings on its violation fixture", a.Name())
			}

			wants, err := parseWants(dir)
			if err != nil {
				t.Fatal(err)
			}
			unexpected, missed := crossMatch(wants, findings)
			for _, f := range unexpected {
				t.Errorf("unexpected finding: %s", f)
			}
			for _, w := range missed {
				t.Errorf("%s:%d: expected finding matching %q, got none", w.file, w.line, w.re)
			}
		})
	}
}

// TestFixtureCrossMatch pins the harness itself: a finding with no
// want-annotation and a want-annotation with no finding must both be
// reported, so a fixture cannot silently rot in either direction.
func TestFixtureCrossMatch(t *testing.T) {
	re := regexp.MustCompile("bad thing")
	wants := []*want{
		{file: "f.go", line: 3, re: re},
		{file: "f.go", line: 9, re: re},
	}
	findings := []Finding{
		{Analyzer: "x", Pos: token.Position{Filename: "f.go", Line: 3}, Message: "bad thing happened"},
		{Analyzer: "x", Pos: token.Position{Filename: "f.go", Line: 5}, Message: "bad thing happened"},
	}
	unexpected, missed := crossMatch(wants, findings)
	if len(unexpected) != 1 || unexpected[0].Pos.Line != 5 {
		t.Errorf("finding without annotation not reported: %v", unexpected)
	}
	if len(missed) != 1 || missed[0].line != 9 {
		t.Errorf("annotation without finding not reported: %v", missed)
	}
	// A message that does not match the pattern fails even on the right
	// line.
	off := []Finding{{Analyzer: "x", Pos: token.Position{Filename: "f.go", Line: 3}, Message: "unrelated"}}
	if unexpected, _ := crossMatch(wants, off); len(unexpected) != 1 {
		t.Errorf("non-matching message on annotated line should be unexpected, got %v", unexpected)
	}
}

// TestSuppression runs the full driver over the suppression fixture: a
// correctly scoped //plvet:ignore moves the finding to Suppressed (same
// line and line-above forms), a directive naming the wrong analyzer
// suppresses nothing, and malformed/unknown directives are findings
// themselves.
func TestSuppression(t *testing.T) {
	mod, err := moduleOnce()
	if err != nil {
		t.Fatal(err)
	}
	dir, err := filepath.Abs(filepath.Join("testdata", "src", "suppress"))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := mod.CheckExtra(dir, "plvet/fixture/suppress")
	if err != nil {
		t.Fatal(err)
	}
	// A synthetic one-package module reuses the real loader's fset and
	// type info while scoping Run (and its directive scan) to the
	// fixture.
	fixMod := &Module{Root: dir, Path: mod.Path, Fset: mod.Fset, Pkgs: []*Package{pkg}}
	res := Run(fixMod, []Analyzer{condwaitAnalyzer{}})

	byLine := func(fs []Finding, analyzer string) map[int]string {
		m := map[int]string{}
		for _, f := range fs {
			if f.Analyzer == analyzer {
				m[f.Pos.Line] = f.Message
			}
		}
		return m
	}
	supp := byLine(res.Suppressed, "condwait")
	if len(supp) != 2 {
		t.Errorf("want 2 suppressed condwait findings (same-line and line-above), got %d: %v", len(supp), res.Suppressed)
	}
	kept := byLine(res.Findings, "condwait")
	if len(kept) != 3 {
		t.Errorf("want 3 surviving condwait findings (wrong-analyzer, malformed, unknown-name directives), got %d: %v", len(kept), res.Findings)
	}
	plvet := byLine(res.Findings, "plvet")
	var sawMalformed, sawUnknown bool
	for _, msg := range plvet {
		if strings.Contains(msg, "malformed ignore directive") {
			sawMalformed = true
		}
		if strings.Contains(msg, "unknown analyzer") {
			sawUnknown = true
		}
	}
	if !sawMalformed {
		t.Error("reason-less directive not reported as malformed")
	}
	if !sawUnknown {
		t.Error("directive naming unknown analyzer not reported")
	}
}

// crossMatch pairs findings with want-annotations and returns the
// mismatches in both directions.
func crossMatch(wants []*want, findings []Finding) (unexpected []Finding, missed []*want) {
	matched := map[*want]bool{}
	for _, f := range findings {
		w := matchWant(wants, f)
		if w == nil {
			unexpected = append(unexpected, f)
			continue
		}
		matched[w] = true
	}
	for _, w := range wants {
		if !matched[w] {
			missed = append(missed, w)
		}
	}
	return unexpected, missed
}

func TestByNameRejectsUnknown(t *testing.T) {
	if _, err := ByName([]string{"recycle", "nosuch"}); err == nil {
		t.Fatal("unknown analyzer name should error")
	}
	as, err := ByName(nil)
	if err != nil || len(as) != len(Analyzers()) {
		t.Fatalf("nil selection should return all analyzers, got %d, %v", len(as), err)
	}
}

// want is one expected-finding annotation.
type want struct {
	file string // absolute path
	line int
	re   *regexp.Regexp
}

// wantRE matches `// want "regex"` and `// want ` + "`regex`" + “.
var wantRE = regexp.MustCompile("// want (?:\"([^\"]*)\"|`([^`]*)`)")

func parseWants(dir string) ([]*want, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var wants []*want
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path, err := filepath.Abs(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			pat := m[1]
			if pat == "" {
				pat = m[2]
			}
			re, err := regexp.Compile(pat)
			if err != nil {
				return nil, fmt.Errorf("%s:%d: bad want pattern %q: %v", path, i+1, pat, err)
			}
			wants = append(wants, &want{file: path, line: i + 1, re: re})
		}
	}
	return wants, nil
}

func matchWant(wants []*want, f Finding) *want {
	for _, w := range wants {
		if w.file == f.Pos.Filename && w.line == f.Pos.Line && w.re.MatchString(f.Message) {
			return w
		}
	}
	return nil
}
