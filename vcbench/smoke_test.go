package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary serve as the host probe, as the benchmark
// binary does.
func TestMain(m *testing.M) {
	if len(os.Args) == 2 && os.Args[1] == probeArg {
		if err := serveProbe(os.Stdin, os.Stdout); err != nil {
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBenchmarkJSONMatchesCatalogue keeps the root BENCHMARK.json and the
// metrics this program reports in step.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	spec, err := loadBenchmarkSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range catalog() {
		want = append(want, w.name)
	}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("BENCHMARK.json workloads %v, catalog %v", names, want)
	}
	check := func(kind string, rules []metricRule, defs []metricDef) {
		if len(rules) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the catalogue %d", kind, len(rules), len(defs))
			return
		}
		for i, d := range defs {
			r := rules[i]
			better := "lower"
			if d.higher {
				better = "higher"
			}
			if r.Name != d.name || r.Unit != d.unit || r.Better != better {
				t.Errorf("%s[%d]: BENCHMARK.json has %s %s %s, the catalogue %s %s %s",
					kind, i, r.Name, r.Unit, r.Better, d.name, d.unit, better)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// TestSmokeAllWorkloads runs every workload at tiny sizes, once untraced
// and once traced, and checks that each prints every contract metric of
// its mode and that no operation fails.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, wl := range catalog() {
		for _, traced := range []bool{false, true} {
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			t.Run(fmt.Sprintf("%s/traced=%v", wl.name, traced), func(t *testing.T) {
				var out bytes.Buffer
				rec, err := runWorkload(options{
					workload: wl.name, seed: 7, seconds: 1, traced: traced, smoke: true,
					spans: filepath.Join(t.TempDir(), "spans.json"),
				}, &out)
				if err != nil {
					t.Fatal(err)
				}
				for _, d := range defs {
					if !strings.Contains(out.String(), "\n"+wl.name+" "+d.name+" ") &&
						!strings.HasPrefix(out.String(), wl.name+" "+d.name+" ") {
						t.Errorf("%s not printed", d.name)
					}
				}
				if rec.Failed != 0 || rec.Metrics["fail_frac"].Value != 0 {
					t.Errorf("%d of %d operations failed", rec.Failed, rec.Attempted)
				}
				if _, err := rec.resultLine(defs); err != nil {
					t.Error(err)
				}
			})
		}
	}
}
