package analysis

import (
	"fmt"
	"sort"
)

// Result is the driver's complete outcome, and the -json output schema of
// cmd/arpanetlint (stable: version bumps on any incompatible change).
type Result struct {
	Version  int          `json:"version"`
	Findings []Diagnostic `json:"findings"`
	// Errors are package load failures (parse or type-check): the driver
	// reports them and exits nonzero, it never panics on a broken tree.
	Errors []string `json:"errors,omitempty"`
}

// ResultVersion is the current -json schema version. Version 4 dropped the
// poolsafe, shardsafe and errcheck-lite rules: a consumer selecting or
// expecting one by name must learn that they are gone (run-time guards at
// the invariants' homes replaced them; DESIGN.md "Run-time guards").
const ResultVersion = 4

// Clean reports whether the run found nothing at all.
func (r Result) Clean() bool { return len(r.Findings) == 0 && len(r.Errors) == 0 }

// Analyze loads the patterns relative to dir's module and runs the named
// rules (all of them when names is empty). Load failures of individual
// packages land in Result.Errors; only infrastructure failures (no module,
// bad pattern, unknown rule) return a Go error.
func Analyze(dir string, patterns, ruleNames []string) (Result, error) {
	l, err := NewLoader(dir)
	if err != nil {
		return Result{}, err
	}
	return AnalyzeWith(l, patterns, ruleNames)
}

// AnalyzeWith is Analyze over a caller-configured loader (overlays, test
// files). The interprocedural program is built over every package the
// load pulled in — dependencies included — so effects propagate across
// package boundaries; findings are still reported only for the packages
// the patterns named.
func AnalyzeWith(l *Loader, patterns, ruleNames []string) (Result, error) {
	rules, err := RulesByName(ruleNames)
	if err != nil {
		return Result{}, err
	}
	pkgs, err := l.Load(patterns...)
	if err != nil {
		return Result{}, err
	}
	res := Result{Version: ResultVersion, Findings: []Diagnostic{}}
	for _, p := range pkgs {
		for _, e := range p.Errors {
			res.Errors = append(res.Errors, fmt.Sprintf("%s: %v", p.Path, e))
		}
	}
	sort.Strings(res.Errors)
	res.Findings = RunProgram(NewProgram(l.All()), pkgs, rules)
	return res, nil
}
