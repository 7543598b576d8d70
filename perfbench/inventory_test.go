package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
)

// TestInventoryMatchesBenchmarkJSON pins the metric and workload names
// the binary reports to the ones BENCHMARK.json declares.
func TestInventoryMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("BENCHMARK.json not found: %v", err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	toSpecs := func(ms []struct{ Name, Unit string }) []metricSpec {
		var out []metricSpec
		for _, m := range ms {
			out = append(out, metricSpec{m.Name, m.Unit})
		}
		return out
	}
	if got := toSpecs(doc.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("end_to_end %v, binary reports %v", got, endToEnd)
	}
	if got := toSpecs(doc.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("per_layer %v, binary reports %v", got, perLayer)
	}
	var names, want []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	for w := range workloads {
		want = append(want, w)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, binary runs %v", names, want)
	}
}
