package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/netsim"
)

// benchmarkJSON is the part of the repository's BENCHMARK.json the
// harness must agree with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// runTiny runs one workload at the self-test sizes and returns its output
// and parsed result.
func runTiny(t *testing.T, name string, seed uint64, trace bool, corrupt func(any)) (string, result) {
	t.Helper()
	var buf bytes.Buffer
	res, err := run(options{workload: name, seed: seed, seconds: 0.001, trace: trace, tiny: true,
		corrupt: corrupt}, &buf)
	if err != nil {
		t.Fatalf("%s: %v\n%s", name, err, buf.String())
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var last result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("%s: last line is not the result: %v\n%s", name, err, out)
	}
	if !reflect.DeepEqual(last, res) {
		t.Fatalf("%s: printed result %+v differs from returned %+v", name, last, res)
	}
	return out, res
}

func digestOf(t *testing.T, out string) string {
	t.Helper()
	for _, l := range strings.Split(out, "\n") {
		if f := strings.Fields(l); len(f) >= 3 && f[0] == "digest" {
			return f[2]
		}
	}
	t.Fatalf("no digest line in\n%s", out)
	return ""
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads: BENCHMARK.json %v, harness %v", names, workloadNames)
	}
	for _, c := range []struct {
		label string
		defs  []metricDef
		json  []struct{ Name, Unit, Better string }
	}{{"end_to_end", endToEnd, bj.EndToEnd}, {"per_layer", perLayer, bj.PerLayer}} {
		var got []metricDef
		for _, m := range c.json {
			got = append(got, metricDef{m.Name, m.Unit, m.Better})
		}
		if !reflect.DeepEqual(got, c.defs) {
			t.Errorf("%s: BENCHMARK.json %v, harness %v", c.label, got, c.defs)
		}
	}
}

// TestEveryMetricPrintedWithUnit runs every workload in both modes and
// checks the result carries exactly BENCHMARK.json's metrics, each with
// its unit and a matching "metric" line, and that all checks pass.
func TestEveryMetricPrintedWithUnit(t *testing.T) {
	bj := readBenchmarkJSON(t)
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			want := map[string]string{}
			src := bj.EndToEnd
			if trace {
				src = bj.PerLayer
			}
			for _, m := range src {
				want[m.Name] = m.Unit
			}
			out, res := runTiny(t, name, 7, trace, nil)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s",
					name, trace, res.Correct, res.Failed, res.Attempted, out)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(want))
			}
			for m, unit := range want {
				got, ok := res.Metrics[m]
				if !ok || got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, trace, m, got, unit)
				}
				if !strings.Contains(out, "metric "+m+" ") || !strings.Contains(out, " "+unit+"\n") {
					t.Errorf("%s trace=%v: no printed line for %s [%s]", name, trace, m, unit)
				}
			}
			if !trace && res.Metrics["wall_s"].Value <= 0 {
				t.Errorf("%s: wall_s %v", name, res.Metrics["wall_s"].Value)
			}
		}
	}
}

// TestCorruptedResultFails perturbs each workload's output before it is
// checked: a θ off by more than its budget, one cell missing from the
// accounting, a controller that never recovered. Each must count as a
// failed operation.
func TestCorruptedResultFails(t *testing.T) {
	for _, c := range []struct {
		name    string
		corrupt func(any)
	}{
		{"fig2f_saturated", func(v any) { v.([]experiments.Fig2fPoint)[1].Sim *= 1.5 }},
		{"fluid_sweep", func(v any) { v.([]experiments.Fig2fPoint)[1].Fluid += 1e-9 }},
		{"openloop_sparse", func(v any) { v.(*netsim.Stats).DeliveredCells-- }},
		{"avail_churn", func(v any) { v.(*experiments.AvailabilityResult).Recovered = false }},
		{"avail_churn", func(v any) { v.(*experiments.AvailabilityResult).ObliviousStats.InjectedCells += 1 << 20 }},
	} {
		out, res := runTiny(t, c.name, 7, false, c.corrupt)
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: corrupted result passed (failed %d of %d)\n%s", c.name, res.Failed, res.Attempted, out)
		}
		if !strings.Contains(out, "\ncheck untraced") {
			t.Errorf("%s: no check line names the failure\n%s", c.name, out)
		}
	}
}

// TestSeedDeterminesInputs checks that a seed reproduces its digest, in
// both modes, and that another seed changes the generated inputs.
func TestSeedDeterminesInputs(t *testing.T) {
	for _, name := range []string{"fig2f_saturated", "openloop_sparse", "avail_churn"} {
		a, _ := runTiny(t, name, 11, false, nil)
		b, _ := runTiny(t, name, 11, true, nil)
		c, _ := runTiny(t, name, 12, false, nil)
		if digestOf(t, a) != digestOf(t, b) {
			t.Errorf("%s: seed 11 digests differ: %s vs %s", name, digestOf(t, a), digestOf(t, b))
		}
		if digestOf(t, a) == digestOf(t, c) {
			t.Errorf("%s: seeds 11 and 12 gave the same digest %s", name, digestOf(t, a))
		}
	}
	// fluid_sweep is seed-free: its inputs must not depend on the seed.
	a, _ := runTiny(t, "fluid_sweep", 11, false, nil)
	c, _ := runTiny(t, "fluid_sweep", 12, false, nil)
	if digestOf(t, a) != digestOf(t, c) {
		t.Errorf("fluid_sweep: digest depends on the seed")
	}
}

func TestParseArgs(t *testing.T) {
	o, err := parseArgs([]string{"--workload", "avail_churn", "--seed", "9", "--seconds", "3", "--trace", "1"}, &bytes.Buffer{})
	if err != nil || o.workload != "avail_churn" || o.seed != 9 || o.seconds != 3 || !o.trace {
		t.Fatalf("parseArgs: %+v, %v", o, err)
	}
	for _, bad := range [][]string{{"--trace", "2"}, {"--seconds", "0"}, {"extra"}} {
		if _, err := parseArgs(bad, &bytes.Buffer{}); err == nil {
			t.Errorf("parseArgs(%q) accepted", bad)
		}
	}
	if _, err := run(options{workload: "nope", seconds: 1}, &bytes.Buffer{}); err == nil {
		t.Error("unknown workload accepted")
	}
}
