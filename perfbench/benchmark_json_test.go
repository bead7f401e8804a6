package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json's metric lists
// and workload names in step with what the benchmark prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		E2E       []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
		}
		for i, w := range want {
			if g := got[i]; g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the benchmark prints %+v", kind, i, g, w)
			}
		}
	}
	check("end_to_end", doc.E2E, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	want := declared()
	if len(doc.Workloads) != len(want) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark declares %d", len(doc.Workloads), len(want))
	}
	for i, w := range want {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark %q", i, doc.Workloads[i].Name, w.name)
		}
	}
}
