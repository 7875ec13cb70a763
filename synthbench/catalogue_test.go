package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesCatalogue keeps the repository's BENCHMARK.json
// and the harness's metric catalogue and workload list in step.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness %d", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] || w.Why != workloadWhy[w.Name] {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), harness %q (%q)",
				i, w.Name, w.Why, workloadNames[i], workloadWhy[workloadNames[i]])
		}
	}
	check := func(kind string, got []metric, want []metric) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the harness %d", kind, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g != w {
				t.Errorf("%s %d: BENCHMARK.json %s/%s/%s, harness %s/%s/%s",
					kind, i, g.Name, g.Unit, g.Better, w.Name, w.Unit, w.Better)
			}
		}
	}
	var e2e, layers []metric
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metric{Name: m.Name, Unit: m.Unit, Better: m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range b.PerLayer {
		layers = append(layers, metric{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	check("end_to_end", e2e, endToEnd)
	check("per_layer", layers, perLayer)
}
