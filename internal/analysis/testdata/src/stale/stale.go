// Package stale is a linter fixture for stale-suppression reporting:
// directives that name an unknown rule, or a rule that runs and no
// longer fires at the site, are themselves findings under the
// pseudo-rule "lint".
package stale

func unknownRule() int {
	// want(+1) lint "unknown rule nosuchrule"
	// lint:ignore nosuchrule this directive names a rule that does not exist
	return 1
}

func ruleNoLongerFires() int {
	// want(+1) lint "stale lint:ignore detdrift"
	// lint:ignore detdrift nothing here has fired since the code moved
	return 2
}
