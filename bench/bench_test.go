package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
)

// The smoke test runs every workload at -scale tiny. It asserts names, units,
// determinism and that a wrong answer fails the run; it asserts no wall-clock
// number.

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatchesProgram holds BENCHMARK.json and the metric tables
// in main.go together.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloadNames[i])
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(b.EndToEnd), len(endToEnd))
	}
	sawSetup := false
	for i, m := range b.EndToEnd {
		s := endToEnd[i]
		lower := m.Better == "lower"
		if m.Name != s.name || m.Unit != s.unit || m.Bound != s.bound || lower != s.lowerIsBetter {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, program %+v", i, m, s)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		sawSetup = sawSetup || (m.Name == "setup_s" && m.Unit == "s" && lower)
	}
	if !sawSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, program %+v", i, m, perLayer[i])
		}
	}
	seen := make(map[string]bool)
	for _, s := range append(append([]spec(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(s.name) {
			t.Errorf("metric name %q does not match %s", s.name, nameRE)
		}
		if !unitRE.MatchString(s.unit) {
			t.Errorf("%s: unit %q does not match %s", s.name, s.unit, unitRE)
		}
		if seen[s.name] {
			t.Errorf("metric name %q used twice", s.name)
		}
		seen[s.name] = true
	}
	for _, w := range workloadNames {
		if !nameRE.MatchString(w) || seen[w] {
			t.Errorf("workload name %q is malformed or also a metric name", w)
		}
	}
}

func tinyConfig(t *testing.T, workload string, trace bool) runConfig {
	return runConfig{workload: workload, seed: 7, seconds: 0.4, trace: trace, sz: scales["tiny"], out: t.TempDir(), log: io.Discard}
}

// TestEveryWorkloadEmitsEveryMetric runs each workload untraced and traced and
// reads the result line as the driver does.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(tinyConfig(t, name, traced))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			var out bytes.Buffer
			if code := report(&out, res, traced); code != 0 {
				t.Errorf("%s traced=%v: exit code %d\n%s", name, traced, code, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var line struct {
				Correct   *bool
				Attempted *int64
				Failed    *int64
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&line); err != nil {
				t.Fatalf("%s traced=%v: last line is not the result object: %v", name, traced, err)
			}
			if line.Correct == nil || !*line.Correct || line.Attempted == nil || *line.Attempted < 1 || line.Failed == nil || *line.Failed != 0 {
				t.Errorf("%s traced=%v: result %s", name, traced, lines[len(lines)-1])
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(line.Metrics), len(want))
			}
			for _, s := range want {
				m, ok := line.Metrics[s.name]
				if !ok || m.Value == nil || m.Unit != s.unit {
					t.Errorf("%s traced=%v: metric %s missing or without its unit %q", name, traced, s.name, s.unit)
					continue
				}
				if !traced && *m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %g; it must never be 0", name, s.name, *m.Value)
				}
			}
		}
	}
}

func TestSeedFixesDatasetAndOperations(t *testing.T) {
	cfg := scales["tiny"].small()
	if a, b := generate(1, cfg).fingerprint(), generate(1, cfg).fingerprint(); a != b {
		t.Errorf("same seed, dataset fingerprints %x and %x", a, b)
	}
	if a, b := generate(1, cfg).fingerprint(), generate(2, cfg).fingerprint(); a == b {
		t.Errorf("seeds 1 and 2 give the same dataset fingerprint %x", a)
	}
	if a, b := opSequenceHash(1), opSequenceHash(1); a != b {
		t.Errorf("same seed, operation hashes %x and %x", a, b)
	}
	if a, b := opSequenceHash(1), opSequenceHash(2); a == b {
		t.Errorf("seeds 1 and 2 give the same operation hash %x", a)
	}
}

// TestCorruptedCheckoutFailsTheRun damages the rows the full check reads and
// expects the run to count failures and exit non-zero.
func TestCorruptedCheckoutFailsTheRun(t *testing.T) {
	for _, name := range workloadNames {
		cfg := tinyConfig(t, name, false)
		cfg.corrupt = true
		res, err := runWorkload(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.failed == 0 {
			t.Errorf("%s: a corrupted checkout went unnoticed (attempted %d)", name, res.attempted)
		}
		if code := report(io.Discard, res, false); code == 0 {
			t.Errorf("%s: exit code 0 with %d failed checks", name, res.failed)
		}
	}
}
