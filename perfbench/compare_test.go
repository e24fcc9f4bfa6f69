package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Reference values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{10, 20, 30, 40, 50}, [3]float64{15, 30, 45}},
		{[]float64{5.5, 1.25, 9, 3, 7, 2, 8, 4, 6, 10.75}, [3]float64{2.75, 5.75, 8.25}},
		{[]float64{2, 2, 2}, [3]float64{2, 2, 2}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		for i, got := range []float64{q1, q2, q3} {
			if math.Abs(got-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v)[%d] = %v, want %v", c.xs, i, got, c.want[i])
			}
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if got := percentile(xs, 0.5); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := percentile(xs, 0.99); math.Abs(got-4.96) > 1e-12 {
		t.Errorf("p99 = %v, want 4.96", got)
	}
	if xs[0] != 4 {
		t.Error("percentile reordered its input")
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	cases := []struct {
		name   string
		base   []float64
		head   []float64
		better string
		want   string
	}{
		{"same", base, base, "lower", "ok"},
		{"slower beyond bound", base, shift(base, 1.2), "lower", "REGRESSION"},
		{"slower within bound", base, shift(base, 1.05), "lower", "ok"},
		{"faster, every pair", base, shift(base, 0.9), "lower", "improved"},
		{"throughput drop", base, shift(base, 0.8), "higher", "REGRESSION"},
		{"throughput gain", base, shift(base, 1.1), "higher", "improved"},
		{"noisy base", noisy, shift(noisy, 1.05), "lower", "unresolved"},
	}
	for _, c := range cases {
		wins, pairs := pairWins(c.base, c.head, c.better)
		got := verdict(newSide(c.base), newSide(c.head), c.better, 0.1, wins, pairs)
		if got != c.want {
			t.Errorf("%s: verdict %s, want %s (wins %d/%d)", c.name, got, c.want, wins, pairs)
		}
	}
}

func TestPairWinsIgnoresTies(t *testing.T) {
	wins, pairs := pairWins([]float64{1, 2, 3}, []float64{1, 1, 4, 0}, "lower")
	if wins != 1 || pairs != 3 {
		t.Errorf("wins %d/%d, want 1/3", wins, pairs)
	}
}

func TestCountDiffsFlagsOnlySameSeed(t *testing.T) {
	recs := []record{
		{Workload: "mc-envelope", Seed: 1, Counts: map[string]int64{"lost": 3, "msgs": 10}},
		{Workload: "mc-envelope", Seed: 1, Counts: map[string]int64{"lost": 4, "msgs": 10}},
		{Workload: "mc-envelope", Seed: 2, Counts: map[string]int64{"lost": 9, "msgs": 10}},
		{Workload: "mc-envelope", Seed: 1, Trace: 1, Counts: map[string]int64{"lost": 7}},
	}
	got := countDiffs(recs)
	if len(got) != 1 || !strings.Contains(got[0], "seed=1 trace=0 lost: 3 4") {
		t.Errorf("countDiffs = %q, want one flag for lost at seed 1", got)
	}
}

func TestReadBoundsRejectsBadDirection(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(good, []byte(`{"end_to_end":[{"name":"p50_ms","unit":"ms","better":"lower","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bad, []byte(`{"end_to_end":[{"name":"p50_ms","unit":"ms","better":"down","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := readBounds(good)
	if err != nil || len(b) != 1 || b[0].Bound != 0.1 {
		t.Fatalf("readBounds(good) = %v, %v", b, err)
	}
	if _, err := readBounds(bad); err == nil {
		t.Fatal("readBounds accepted better=down")
	}
}

func TestBenchmarkJSONMatchesMetricLists(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not present:", err)
	}
	var spec struct {
		EndToEnd []boundDef `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
		Workloads []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d/%d metrics, perfbench %d/%d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		if s := spec.EndToEnd[i]; s.Name != d.Name || s.Unit != d.Unit || s.Better != d.Better {
			t.Errorf("end_to_end[%d] = %+v, perfbench has %+v", i, s, d)
		}
	}
	for i, d := range perLayer {
		if s := spec.PerLayer[i]; s.Name != d.Name || s.Unit != d.Unit || s.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, perfbench has %+v", i, s, d)
		}
	}
	if len(spec.Workloads) < 2 {
		t.Fatalf("BENCHMARK.json gates %d workloads, want at least 2", len(spec.Workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json names workload %q, which perfbench does not run", w.Name)
		}
	}
}

func TestCompareEndToEnd(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end":[
		{"name":"req_per_s","unit":"1/s","better":"higher","bound":0.1},
		{"name":"p50_ms","unit":"ms","better":"lower","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, rps, p50 []float64, lost int64) string {
		var buf bytes.Buffer
		for i := range rps {
			r := record{Workload: "serve-hot", Seed: int64(i + 1), Correct: true, Attempted: 10,
				Metrics: map[string]metric{"req_per_s": {rps[i], "1/s"}, "p50_ms": {p50[i], "ms"}},
				Counts:  map[string]int64{"lost": lost}}
			b, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(append(b, '\n'))
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("base.jsonl", []float64{100, 101, 99}, []float64{1, 1.01, 0.99}, 0)
	same := write("same.jsonl", []float64{100.5, 100, 99.5}, []float64{1, 1, 1}, 0)
	slow := write("slow.jsonl", []float64{80, 81, 79}, []float64{1, 1, 1}, 1)

	var out, errOut bytes.Buffer
	if code := runCompare([]string{"-benchmark", spec, base, same}, &out, &errOut); code != 0 {
		t.Fatalf("same code: exit %d\n%s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "serve-hot    req_per_s") || strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("unexpected comparison of equal runs:\n%s", out.String())
	}
	out.Reset()
	if code := runCompare([]string{"-benchmark", spec, base, slow}, &out, &errOut); code != 1 {
		t.Fatalf("slower head: exit %d, want 1\n%s", code, out.String())
	}
	for _, want := range []string{"REGRESSION", "COUNT DIFFERS serve-hot seed=1 trace=0 lost: 0 1"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}

func TestNormalizeRemovesElapsedField(t *testing.T) {
	in := []byte(`{"mode":"simulate","work_units":3,"elapsed_ms":12.5e-3}` + "\n")
	want := `{"mode":"simulate","work_units":3}` + "\n"
	if got := string(normalize(in)); got != want {
		t.Errorf("normalize = %q, want %q", got, want)
	}
	if !bytes.Contains(in, []byte("elapsed_ms")) {
		t.Error("normalize modified its input")
	}
}

func TestWindowedThroughput(t *testing.T) {
	out := newOutcome()
	out.Window, out.Elapsed = 1, 3.5
	// Three full windows of 4, 1 and 2 requests; the half window after
	// them is dropped.
	for _, d := range []float64{0.1, 0.2, 0.3, 0.4, 1.5, 2.5, 2.6, 3.2} {
		out.Done = append(out.Done, d)
		out.Latencies = append(out.Latencies, 10*d)
	}
	rate, p50, _, rates := windowed(out)
	if len(rates) != 3 || rates[0] != 4 || rates[1] != 1 || rates[2] != 2 {
		t.Fatalf("window rates %v, want [4 1 2]", rates)
	}
	// Window medians 2.5, 15 and 25.5: the middle one is 15.
	if rate != 2 || math.Abs(p50-15) > 1e-12 {
		t.Errorf("rate %v p50 %v, want 2 and 15", rate, p50)
	}

	passes := newOutcome()
	passes.Latencies, passes.Elapsed = []float64{5000, 4000, 6000}, 15
	rate, p50, _, _ = windowed(passes)
	if rate != 0.2 || p50 != 5000 {
		t.Errorf("passes: rate %v p50 %v, want 0.2 and 5000", rate, p50)
	}
}
