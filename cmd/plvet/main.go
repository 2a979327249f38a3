// Command plvet runs the repo-local static analyzers of internal/lint
// over the module and prints findings as file:line:col diagnostics,
// exiting non-zero when any invariant is violated.
//
// Usage:
//
//	go run ./cmd/plvet ./...                  # whole module
//	go run ./cmd/plvet ./internal/transport   # one subtree
//	go run ./cmd/plvet -only recycle,condwait ./...
//	go run ./cmd/plvet -json ./... > plvet.json
//	go run ./cmd/plvet -list
//
// The whole module is always loaded and type-checked (analyzers need
// cross-package types either way); patterns only filter which packages'
// findings are reported.
//
// A finding is silenced in place with a suppression comment naming the
// analyzer and a reason:
//
//	conn.Close() //plvet:ignore lockblock shutdown path, lock ordering is documented
//
// Suppressed findings are counted on stderr but do not fail the run;
// a malformed directive or one naming an unknown analyzer is itself a
// finding.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"powerlog/internal/lint"
)

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list registered analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit findings as JSON on stdout (for CI artifacts)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: plvet [-only a,b] [-json] [-list] [patterns]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-10s %s\n", a.Name(), a.Doc())
		}
		return
	}

	var names []string
	if *only != "" {
		names = strings.Split(*only, ",")
	}
	analyzers, err := lint.ByName(names)
	if err != nil {
		fatal(err)
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	root, err := lint.FindModuleRoot(cwd)
	if err != nil {
		fatal(err)
	}
	mod, err := lint.LoadModule(root)
	if err != nil {
		fatal(err)
	}

	res := lint.Run(mod, analyzers)
	findings := filterByPatterns(res.Findings, flag.Args(), cwd)
	suppressed := filterByPatterns(res.Suppressed, flag.Args(), cwd)

	relativize := func(fs []lint.Finding) {
		// Report paths relative to the invocation directory, like go vet.
		for i := range fs {
			if rel, err := filepath.Rel(cwd, fs[i].Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
				fs[i].Pos.Filename = rel
			}
		}
	}
	relativize(findings)
	relativize(suppressed)

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "\t")
		if err := enc.Encode(jsonReport(findings, suppressed)); err != nil {
			fatal(err)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if n := len(suppressed); n > 0 {
		fmt.Fprintf(os.Stderr, "plvet: %d finding(s) suppressed by //plvet:ignore\n", n)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "plvet: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// jsonFinding is the stable wire shape of one diagnostic; the text form
// (file:line:col) stays the human-facing format.
type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
}

func jsonReport(findings, suppressed []lint.Finding) map[string]any {
	conv := func(fs []lint.Finding) []jsonFinding {
		out := make([]jsonFinding, 0, len(fs)) // empty slice, not null, when clean
		for _, f := range fs {
			out = append(out, jsonFinding{
				Analyzer: f.Analyzer,
				File:     filepath.ToSlash(f.Pos.Filename),
				Line:     f.Pos.Line,
				Column:   f.Pos.Column,
				Message:  f.Message,
			})
		}
		return out
	}
	return map[string]any{
		"findings":   conv(findings),
		"suppressed": conv(suppressed),
	}
}

// filterByPatterns keeps findings under the directories named by
// go-style patterns ("./...", "./internal/transport", ...). No patterns
// (or any "./..." from the module root) means everything.
func filterByPatterns(findings []lint.Finding, patterns []string, cwd string) []lint.Finding {
	if len(patterns) == 0 {
		return findings
	}
	type scope struct {
		dir       string
		recursive bool
	}
	var scopes []scope
	for _, p := range patterns {
		recursive := false
		if strings.HasSuffix(p, "/...") {
			recursive = true
			p = strings.TrimSuffix(p, "/...")
		} else if p == "..." {
			recursive = true
			p = "."
		}
		dir := p
		if !filepath.IsAbs(dir) {
			dir = filepath.Join(cwd, dir)
		}
		scopes = append(scopes, scope{dir: filepath.Clean(dir), recursive: recursive})
	}
	var out []lint.Finding
	for _, f := range findings {
		dir := filepath.Dir(f.Pos.Filename)
		for _, s := range scopes {
			if dir == s.dir || (s.recursive && strings.HasPrefix(dir, s.dir+string(filepath.Separator))) {
				out = append(out, f)
				break
			}
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "plvet: %v\n", err)
	os.Exit(1)
}
