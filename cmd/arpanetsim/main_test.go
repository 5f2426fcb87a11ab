package main

import (
	"reflect"
	"testing"

	"repro/internal/node"
)

// One parser serves the Table 1 study, -scenario and -shards: every name
// means the same kinds in each, and anything else is an error, never a
// silent min-hop.
func TestMetricKinds(t *testing.T) {
	cases := []struct {
		name string
		want []node.MetricKind // nil: rejected
	}{
		{"hnspf", []node.MetricKind{node.HNSPF}},
		{"dspf", []node.MetricKind{node.DSPF}},
		{"minhop", []node.MetricKind{node.MinHop}},
		{"both", []node.MetricKind{node.DSPF, node.HNSPF}},
		{"bf1969", []node.MetricKind{node.BF1969}},
		{"", nil},
		{"nonsense", nil},
	}
	for _, tc := range cases {
		got, err := metricKinds(tc.name)
		if (err != nil) != (tc.want == nil) || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("metricKinds(%q) = %v, %v; want %v", tc.name, got, err, tc.want)
		}
		for _, k := range got {
			if m, ok := apiMetric[k]; !ok || m.String() != k.String() {
				t.Errorf("metricKinds(%q): kind %v has no public-API twin (got %v)", tc.name, k, m)
			}
		}
	}
}
