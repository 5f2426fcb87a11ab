package check

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/fanout"
)

// Options configures a campaign run.
type Options struct {
	// Campaigns is how many independent campaigns to run (at least one).
	// Campaign i uses seed Seed+i, so a failing campaign reruns alone with
	// -campaigns 1 -seed <its seed>.
	Campaigns int
	// Seed is the base seed.
	Seed int64
}

// trials is how often one campaign runs each pillar, in campaign order:
// the cheap pure-function checks twice, the packet-simulation ones once.
var trials = []struct {
	n     int
	check func(rng *rand.Rand, seed int64) *Failure
}{
	{2, func(rng *rand.Rand, seed int64) *Failure { return CheckSPF(rng, seed, IncrementalFactory) }},
	{2, CheckMetric},
	{2, CheckFlood},
	{1, CheckScenario},
	{1, CheckHybrid},
	{1, CheckShardRouting},
	{1, CheckShardCustody},
}

// CampaignResult is one campaign's outcome: its seed, any failures (each
// with a minimized reproducer), and a deterministic one-line log.
type CampaignResult struct {
	Seed     int64
	Failures []*Failure
	Log      string
}

// RunCampaign runs every checker pillar under a single seed. All randomness
// flows from one rand source, so the whole campaign replays bit-for-bit
// from the seed alone. The Options argument carries nothing a campaign
// reads; it stays because bench/ calls this signature.
func RunCampaign(seed int64, _ Options) CampaignResult {
	rng := rand.New(rand.NewSource(seed))
	var failures []*Failure
	for _, t := range trials {
		for i := 0; i < t.n; i++ {
			if f := t.check(rng, seed); f != nil {
				failures = append(failures, f)
			}
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "campaign seed=%d", seed)
	if len(failures) == 0 {
		b.WriteString(" ok")
	} else {
		for _, f := range failures {
			fmt.Fprintf(&b, " FAIL[%s: %s]", f.Check, f.Err)
		}
	}
	return CampaignResult{Seed: seed, Failures: failures, Log: b.String()}
}

// Run fans opt.Campaigns campaigns over the cores. Workers write disjoint
// result slots, so the returned slice — ordered by campaign index — is
// identical at any GOMAXPROCS.
func Run(opt Options) []CampaignResult {
	results := make([]CampaignResult, max(opt.Campaigns, 1))
	fanout.Do(len(results), func(next func() (int, bool)) {
		for i, ok := next(); ok; i, ok = next() {
			results[i] = RunCampaign(opt.Seed+int64(i), opt)
		}
	})
	return results
}
