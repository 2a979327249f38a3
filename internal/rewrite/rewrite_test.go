package rewrite

import (
	"strings"
	"testing"

	"powerlog/internal/analyzer"
	"powerlog/internal/checker"
	"powerlog/internal/parser"
	"powerlog/internal/progs"
)

func analyzeSrc(t *testing.T, src string) (*analyzer.Info, *checker.Report) {
	t.Helper()
	rep, info, err := checker.CheckSource(src)
	if err != nil {
		t.Fatal(err)
	}
	return info, rep
}

func TestPageRankToIncremental(t *testing.T) {
	info, rep := analyzeSrc(t, progs.PageRank)
	out, err := ToIncremental(info, rep)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	// The teleport constant moved into an iteration-0 init rule.
	if !strings.Contains(text, "rank(0,Y,ry)") {
		t.Errorf("missing init rule:\n%s", text)
	}
	// The recursive rule has a self-feed body (Program 2.b's "ry = r").
	if !strings.Contains(text, "ǂprev") {
		t.Errorf("missing self-feed body:\n%s", text)
	}
	// Still carries F' and the termination clause.
	if !strings.Contains(text, "0.85 * rx / d") {
		t.Errorf("missing F':\n%s", text)
	}
	if !strings.Contains(text, "< 0.0001") {
		t.Errorf("missing termination clause:\n%s", text)
	}
	// The degree view passes through.
	if !strings.Contains(text, "degree(X,count[Y])") {
		t.Errorf("missing degree view:\n%s", text)
	}
}

func TestSSSPToIncrementalKeepsInit(t *testing.T) {
	info, rep := analyzeSrc(t, progs.SSSP)
	out, err := ToIncremental(info, rep)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "sssp(X,d)") {
		t.Errorf("init rule lost:\n%s", text)
	}
	if !strings.Contains(text, "dx + dxy") {
		t.Errorf("F' lost:\n%s", text)
	}
}

func TestRejectsUnsatisfiablePrograms(t *testing.T) {
	info, rep := analyzeSrc(t, progs.GCNForward)
	if _, err := ToIncremental(info, rep); err == nil {
		t.Fatal("GCN-Forward must not be rewritten")
	}
}

func TestRewriteWithNilReportChecksItself(t *testing.T) {
	info, _ := analyzeSrc(t, progs.Katz)
	out, err := ToIncremental(info, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rules) == 0 {
		t.Fatal("empty rewrite")
	}
}

func TestRewrittenProgramReparses(t *testing.T) {
	// Everything except the internal ǂprev marker must round-trip through
	// the parser; rename it first the way an exporter would.
	info, rep := analyzeSrc(t, progs.Adsorption)
	out, err := ToIncremental(info, rep)
	if err != nil {
		t.Fatal(err)
	}
	text := strings.ReplaceAll(out.String(), "ǂprev", "prevval")
	if _, err := parser.Parse(text); err != nil {
		t.Fatalf("rewritten program does not reparse: %v\n%s", err, text)
	}
}
