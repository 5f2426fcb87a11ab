package analysis

import (
	"go/token"
	"sort"
	"strings"
)

// suppression is one parsed directive:
//
//	// lint:ignore rule[,rule] reason
type suppression struct {
	rules  []string
	reason string
	line   int

	// used records which of the named rules this directive actually
	// silenced during the run (a filtered finding, or an effect it kept out
	// of a function summary). A well-formed directive whose rule ran but
	// silenced nothing is stale and is itself reported.
	used map[string]bool
}

func (s *suppression) covers(rule string) bool {
	for _, r := range s.rules {
		if r == rule {
			return true
		}
	}
	return false
}

// parseSuppressions builds the per-file line -> directive index on first
// use. A directive covers findings on its own line (trailing comment) and
// on the line directly below (comment on its own line above the code).
func (p *Package) parseSuppressions() {
	if p.suppressions != nil {
		return
	}
	p.suppressions = map[string]map[int]*suppression{}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")), "lint:ignore")
				if !ok {
					continue
				}
				text := strings.TrimSpace(rest)
				pos := p.Fset.Position(c.Pos())
				s := &suppression{line: pos.Line, used: map[string]bool{}}
				fields := strings.Fields(text)
				if len(fields) > 0 {
					for _, r := range strings.Split(fields[0], ",") {
						if r = strings.TrimSpace(r); r != "" {
							s.rules = append(s.rules, r)
						}
					}
					s.reason = strings.TrimSpace(strings.TrimPrefix(text, fields[0]))
				}
				byLine := p.suppressions[pos.Filename]
				if byLine == nil {
					byLine = map[int]*suppression{}
					p.suppressions[pos.Filename] = byLine
				}
				byLine[pos.Line] = s
			}
		}
	}
}

// suppressed reports whether a diagnostic at (filename, line) for rule is
// covered by a well-formed directive, and marks the directive used for
// that rule when it is.
func (p *Package) suppressed(rule, filename string, line int) bool {
	p.parseSuppressions()
	for _, l := range []int{line, line - 1} {
		if s := p.suppressions[filename][l]; s != nil && s.reason != "" && s.covers(rule) {
			s.used[rule] = true
			return true
		}
	}
	return false
}

// badSuppressions reports malformed directives: a lint:ignore without a
// rule list or without a reason suppresses nothing, silently — which is
// worse than no directive at all, so it is itself a finding.
func (p *Package) badSuppressions() []Diagnostic {
	p.parseSuppressions()
	var out []Diagnostic
	for filename, byLine := range p.suppressions {
		for _, s := range byLine {
			if len(s.rules) > 0 && s.reason != "" {
				continue
			}
			out = append(out, p.lintDiag(filename, s.line,
				"malformed lint:ignore: need \"lint:ignore <rule>[,<rule>] <reason>\" "+
					"— a directive without a reason does not suppress"))
		}
	}
	return out
}

// staleSuppressions reports well-formed directives that name an unknown
// rule, or a known rule that ran over the package and silenced nothing at
// that site. Both mean the directive no longer does what its author
// believed: the code moved, the rule got more precise, or the name rotted.
// ranRules is the set of rule names this run executed; a directive naming
// a rule that did not run is left alone (it may be live under -rules).
func (p *Package) staleSuppressions(ranRules map[string]bool) []Diagnostic {
	p.parseSuppressions()
	known := map[string]bool{}
	for _, r := range AllRules() {
		known[r.Name()] = true
	}
	var out []Diagnostic
	for filename, byLine := range p.suppressions {
		for _, s := range byLine {
			if len(s.rules) == 0 || s.reason == "" {
				continue // malformed: badSuppressions owns it
			}
			for _, rule := range s.rules {
				directive := "lint:ignore " + rule
				if !known[rule] {
					out = append(out, p.lintDiag(filename, s.line,
						"unknown rule "+rule+" in "+directive+" — the directive suppresses nothing"))
					continue
				}
				if ranRules[rule] && !s.used[rule] {
					out = append(out, p.lintDiag(filename, s.line,
						"stale "+directive+": "+rule+" no longer fires at this site; delete the directive"))
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		return out[i].Line < out[j].Line
	})
	return out
}

// lintDiag builds a pseudo-rule "lint" diagnostic about a directive.
func (p *Package) lintDiag(filename string, line int, msg string) Diagnostic {
	return Diagnostic{
		Rule:     "lint",
		Pos:      token.Position{Filename: filename, Line: line, Column: 1},
		File:     p.relPath(filename),
		Line:     line,
		Col:      1,
		Message:  msg,
		Package:  p.Path,
		Severity: "error",
	}
}

// filterSuppressed drops diagnostics covered by a well-formed lint:ignore
// directive on the flagged line or the line above it.
func filterSuppressed(diags []Diagnostic, pkgs []*Package) []Diagnostic {
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	out := diags[:0]
	for _, d := range diags {
		if p := byPath[d.Package]; p != nil && p.suppressed(d.Rule, d.Pos.Filename, d.Pos.Line) {
			continue
		}
		out = append(out, d)
	}
	return out
}

// hasDirective reports whether any file of the package carries the given
// package-level lint directive (e.g. "lint:deterministic", the opt-in used
// by fixture packages outside the canonical deterministic set).
func (p *Package) hasDirective(name string) bool {
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.TrimSpace(strings.TrimPrefix(c.Text, "//")) == name {
					return true
				}
			}
		}
	}
	return false
}
