package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// summary is a set of runs per workload: each metric's per-run values
// with their median and quartiles, and the machine they ran on.
type summary struct {
	Env       map[string]any              `json:"env"`
	Workloads map[string]*workloadSummary `json:"workloads"`
}

type workloadSummary struct {
	Seeds   []int64                   `json:"seeds"`
	Metrics map[string]*metricSummary `json:"metrics"`
}

type metricSummary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

// summarizeMain reads -record files and writes their summary to out.
func summarizeMain(out string, inputs []string) int {
	if len(inputs) == 0 {
		fmt.Fprintln(os.Stderr, "bench: -summarize OUT.json needs record files")
		return 2
	}
	s := &summary{Env: environment(), Workloads: make(map[string]*workloadSummary)}
	for _, in := range inputs {
		if err := s.addRecords(in); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	for _, ws := range s.Workloads {
		for _, ms := range ws.Metrics {
			ms.Median = median(ms.Values)
			ms.Q1, ms.Q3 = quartiles(ms.Values)
		}
	}
	b, err := json.MarshalIndent(s, "", "  ")
	if err == nil {
		err = os.WriteFile(out, append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

func (s *summary) addRecords(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if r.Result == nil || !r.Result.Correct {
			return fmt.Errorf("%s: %s seed %d: run failed its checks", path, r.Workload, r.Seed)
		}
		ws := s.Workloads[r.Workload]
		if ws == nil {
			ws = &workloadSummary{Metrics: make(map[string]*metricSummary)}
			s.Workloads[r.Workload] = ws
		}
		if !r.Trace {
			ws.Seeds = append(ws.Seeds, r.Seed)
		}
		for name, v := range r.Result.Metrics {
			ms := ws.Metrics[name]
			if ms == nil {
				ms = &metricSummary{Unit: v.Unit}
				ws.Metrics[name] = ms
			}
			ms.Values = append(ms.Values, v.Value)
		}
	}
	return sc.Err()
}

// environment describes the machine a summary's runs came from.
func environment() map[string]any {
	env := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": min(2, runtime.NumCPU()),
		"go":         runtime.Version(),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env["cpu"] = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}

// quartiles returns the first and third quartiles by the exclusive
// method, as Python's statistics.quantiles(xs, n=4) computes them.
func quartiles(xs []float64) (float64, float64) {
	n := len(xs)
	if n < 2 {
		m := median(xs)
		return m, m
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile distance as a share of the median.
func (ms *metricSummary) spread() float64 {
	if ms.Median == 0 {
		return 0
	}
	return (ms.Q3 - ms.Q1) / math.Abs(ms.Median)
}

// specPath finds BENCHMARK.json from the repository root or bench/.
func specPath() string {
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		if _, err := os.Stat(p); err == nil {
			return p
		}
	}
	return "BENCHMARK.json"
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareMain judges NEW against BASE for every workload and end-to-end
// metric by the direction and bound BENCHMARK.json gives it, and exits
// 1 on any regression.
func compareMain(args []string, spec string, out io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "bench: -compare needs BASE.json NEW.json")
		return 2
	}
	var sp benchSpec
	var base, next summary
	for _, f := range []struct {
		path string
		v    any
	}{{spec, &sp}, {args[0], &base}, {args[1], &next}} {
		if err := readJSON(f.path, f.v); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 2
		}
	}
	names := make([]string, 0, len(base.Workloads))
	for n := range base.Workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	code := 0
	fmt.Fprintf(out, "%-14s %-14s %12s %12s %8s %7s  %s\n", "workload", "metric", "base", "new", "change", "bound", "verdict")
	for _, wn := range names {
		b, n := base.Workloads[wn], next.Workloads[wn]
		if n == nil {
			fmt.Fprintf(out, "%-14s missing from %s\n", wn, args[1])
			code = 1
			continue
		}
		for _, sm := range sp.EndToEnd {
			bm, nm := b.Metrics[sm.Name], n.Metrics[sm.Name]
			if bm == nil || nm == nil {
				fmt.Fprintf(out, "%-14s %-14s missing\n", wn, sm.Name)
				code = 1
				continue
			}
			v := verdict(bm, nm, sm.Better, sm.Bound)
			if v == "worse" {
				code = 1
			}
			change := 0.0
			if bm.Median != 0 {
				change = 100 * (nm.Median - bm.Median) / math.Abs(bm.Median)
			}
			fmt.Fprintf(out, "%-14s %-14s %12.6g %12.6g %+7.2f%% %6.0f%%  %s\n",
				wn, sm.Name, bm.Median, nm.Median, change, 100*sm.Bound, v)
		}
	}
	return code
}

// verdict classifies NEW against BASE. A metric whose run-to-run spread
// exceeds its bound on either side cannot be judged unless every new run
// beats every base run.
func verdict(base, next *metricSummary, better string, bound float64) string {
	sign := 1.0 // +1: a rise is worse
	if better == "higher" {
		sign = -1
	}
	if base.spread() > bound || next.spread() > bound {
		for _, nv := range next.Values {
			for _, bv := range base.Values {
				if sign*(nv-bv) >= 0 {
					return "unresolved"
				}
			}
		}
		return "better"
	}
	if base.Median == 0 {
		return "same"
	}
	rel := sign * (next.Median - base.Median) / math.Abs(base.Median)
	switch {
	case rel > bound:
		return "worse"
	case rel < -bound:
		return "better"
	}
	return "same"
}
