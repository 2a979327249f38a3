// Package suppress seeds condwait violations paired with every shape of
// //plvet:ignore directive; lint_test.go's TestSuppression runs the
// full driver over it and checks which findings survive.
package suppress

import "sync"

// Same-line directive: suppressed.
func sameLine() {
	var c sync.Cond //plvet:ignore condwait fixture: suppression on the offending line
	c.Signal()
}

// Directive alone on the line above: suppressed.
func lineAbove() {
	//plvet:ignore condwait fixture: directive covers the next line
	var c sync.Cond
	c.Signal()
}

// Directive names a different analyzer: the condwait finding survives.
func wrongAnalyzer() {
	var c sync.Cond //plvet:ignore kindswitch fixture: scoped to the wrong analyzer
	c.Signal()
}

// Reason missing: the directive is malformed (a "plvet" finding) and
// suppresses nothing.
func malformed() {
	var c sync.Cond //plvet:ignore condwait
	c.Signal()
}

// Unknown analyzer name: reported, suppresses nothing.
func unknownName() {
	var c sync.Cond //plvet:ignore nosuch fixture: typo'd analyzer name
	c.Signal()
}
