// Command bench is the repository's benchmark: four workloads over the
// checkpoint/restart stack, end-to-end metrics on the host and simulated
// clocks, and a traced run that breaks host time down by layer. See
// README.md for the workloads and the metric catalogue.
//
//	bench -workload ckpt-stream -seed 1 -seconds 20 -trace 0
//	bench -workload ckpt-stream -trace 1   # the per-layer breakdown
//	bench                                  # every workload, untraced then traced
//	bench -summarize OUT.json RECORDS.jsonl...
//	bench -compare BASE.json NEW.json
//
// A run prints one line per metric, "name value unit clock n", and last
// a JSON object with the keys correct, attempted, failed and metrics.
// It exits 1 when a check fails or a percentile lacks samples.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"sync"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run; empty runs every workload, untraced and then traced")
	seed := fs.Int64("seed", 1, "workload seed; every generated input derives from it")
	seconds := fs.Int("seconds", 20, "length of the measured phase, in seconds")
	traceFlag := fs.String("trace", "0", "1 reports the per-layer metrics of a traced run instead of the end-to-end ones")
	record := fs.String("record", "", "append each run's result, with its workload and seed, to this JSON-lines file")
	compare := fs.Bool("compare", false, "compare two summaries given as arguments: BASE.json NEW.json")
	summarize := fs.String("summarize", "", "write a summary of the record files given as arguments to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *compare:
		return compareMain(fs.Args(), specPath(), out)
	case *summarize != "":
		return summarizeMain(*summarize, fs.Args())
	}
	traced, err := strconv.ParseBool(*traceFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: -trace %q: want 0 or 1\n", *traceFlag)
		return 2
	}
	if *seconds < 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must not be negative")
		return 2
	}
	// One process, at most two threads running Go code.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	budget := time.Duration(*seconds) * time.Second

	type job struct {
		w      *workload
		traced bool
	}
	var jobs []job
	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 2
		}
		jobs = append(jobs, job{w, traced})
	} else {
		for _, t := range []bool{false, true} {
			for _, w := range workloads {
				jobs = append(jobs, job{w, t})
			}
		}
	}
	code := 0
	for _, j := range jobs {
		res := runWorkload(j.w, config{seed: *seed}, budget, j.traced)
		if err := res.print(out, j.w, *seed, j.traced); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		if *record != "" {
			if err := appendRecord(*record, j.w.name, *seed, *seconds, j.traced, res); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				return 1
			}
		}
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// result is one run's outcome; its JSON form is the run's last line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	rounds int
	lines  []string
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload performs one run: the end-to-end metrics of an untraced
// measured phase or, when traced, the per-layer breakdown.
func runWorkload(w *workload, cfg config, budget time.Duration, traced bool) *result {
	m, err := measure(w, cfg, budget, traced)
	res := &result{Metrics: make(map[string]value)}
	if m == nil {
		logf("%s: %v", w.name, err)
		return res
	}
	res.Correct = err == nil
	if err != nil {
		logf("%s: %v", w.name, err)
	}
	res.Attempted, res.Failed, res.rounds = m.rec.attempted, m.rec.failed, m.rec.rounds
	if res.Attempted == 0 || res.Failed > 0 {
		res.Correct = false
	}
	set := endToEnd
	if traced {
		set = perLayer
	}
	m.hostSpeed = m.speed.factor(w.parallel)
	for _, mt := range set {
		v, n, err := mt.value(m)
		v = mt.scaled(v, m.hostSpeed)
		if err != nil {
			logf("%s: %s: %v", w.name, mt.name, err)
			res.Correct = false
		}
		res.Metrics[mt.name] = value{Value: v, Unit: mt.unit}
		res.lines = append(res.lines, fmt.Sprintf("%s %s %s %s %d",
			mt.name, strconv.FormatFloat(v, 'g', 6, 64), mt.unit, mt.clock, n))
	}
	return res
}

// measure runs set-up and the measured phase. A traced run also sets up
// an untraced twin and runs round i of both back to back, so that drift
// in the host (heap growth, caches) affects both alike: their ratio of
// host time is the tracing overhead. measure returns nil measurements
// only when nothing could be measured.
func measure(w *workload, cfg config, budget time.Duration, traced bool) (*measured, error) {
	rounds, minRounds := w.simRounds, w.simRounds
	if cfg.tiny {
		rounds, minRounds, budget = w.tinyRounds, w.tinyRounds, 0
	}
	if !traced {
		m, err := newMeasured(w, cfg, nil, 3)
		if err != nil {
			return nil, err
		}
		return m, runPhase(rounds, minRounds, budget, m)
	}
	base, err := newMeasured(w, cfg, nil, 1)
	if err != nil {
		return nil, err
	}
	m, err := newMeasured(w, cfg, newTracer(), 1)
	if err != nil {
		return nil, err
	}
	if !cfg.tiny {
		minRounds = 1
	}
	base.speed = m.speed
	err = runPhase(rounds, minRounds, budget, base, m)
	m.rec.attempted += base.rec.attempted
	m.rec.failed += base.rec.failed
	if base.rec.wall > 0 {
		m.overheadPct = 100 * (float64(m.rec.wall)/float64(base.rec.wall) - 1)
	}
	if err == nil {
		err = crossCheck(m.rec)
	}
	return m, err
}

// newMeasured sets the workload up for one run, traced when tr is
// non-nil, running and timing its set-up setups times or more.
func newMeasured(w *workload, cfg config, tr *tracer, setups int) (*measured, error) {
	cfg.tr, cfg.rec = tr, newRecorder(tr)
	setupS, rf, err := setUp(w, cfg, setups)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	return &measured{rec: cfg.rec, tr: tr, setupS: setupS, rf: rf, speed: newHostSpeed()}, nil
}

// setUp runs the workload's set-up at least times times, and more while
// it has taken under half a second in all, reporting each duration; the
// last set-up's rounds are the ones measured.
func setUp(w *workload, cfg config, times int) ([]float64, roundFunc, error) {
	var durs []float64
	var total time.Duration
	var rf roundFunc
	for len(durs) < times || (times > 1 && total < time.Second/2 && len(durs) < 15) {
		runtime.GC()
		cfg.tr.pause()
		start := time.Now()
		f, err := w.setup(cfg)
		d := time.Since(start)
		cfg.tr.resume()
		if err != nil {
			return nil, nil, err
		}
		rf = f
		total += d
		durs = append(durs, d.Seconds())
	}
	return durs, rf, nil
}

// runPhase runs rounds until at least minRounds are done and the budget
// is spent; each step runs round i of every run, in an order that
// alternates from step to step. Between steps it samples the host's
// speed. Rounds below simRounds report simulated-clock samples.
func runPhase(simRounds, minRounds int, budget time.Duration, runs ...*measured) error {
	runtime.GC()
	speed := runs[0].speed
	for i := 0; i < 3; i++ {
		speed.sample()
	}
	stopHeap := watchHeap()
	defer func() {
		peak := stopHeap()
		for _, m := range runs {
			m.heapMiB = peak
		}
	}()
	start := time.Now()
	for i := 0; i < minRounds || time.Since(start) < budget; i++ {
		for k := range runs {
			m := runs[k]
			if i%2 == 1 {
				m = runs[len(runs)-1-k]
			}
			if err := m.round(i, i < simRounds); err != nil {
				return fmt.Errorf("round %d: %w", i, err)
			}
		}
		speed.maybeSample()
	}
	return nil
}

// watchHeap samples the live heap, as the last GC marked it, every 5ms
// until the returned func is called; that func returns the largest
// sample in MiB.
func watchHeap() func() float64 {
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	var peak uint64
	read := func() {
		metrics.Read(sample)
		if v := sample[0].Value; v.Kind() == metrics.KindUint64 && v.Uint64() > peak {
			peak = v.Uint64()
		}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				read()
			}
		}
	}()
	return func() float64 {
		close(done)
		wg.Wait()
		read()
		return float64(peak) / (1 << 20)
	}
}

// round runs one round and adds the runtime's allocation and GC
// activity during it. Every round starts from a collected heap, so the
// collector's cycles fall at like points of like rounds.
func (m *measured) round(i int, sim bool) error {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m.rec.beginRound(sim)
	v, err := m.rf(i)
	if err != nil {
		return err
	}
	m.rec.endRound(v)
	runtime.ReadMemStats(&after)
	m.gcCycles += float64(after.NumGC - before.NumGC)
	m.gcPauseMs += float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	m.allocMiB += float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	return nil
}

// crossCheck compares the benchmark's storage accounting with the
// program's own: every byte the capture layer reports encoding must
// reach the storage target it wrote to.
func crossCheck(rec *recorder) error {
	if rec.ns["ckpt.logical_bytes"] == 0 {
		return nil
	}
	if enc, got := rec.sums["ckpt.encoded_bytes"], rec.sums["ckpt.logical_bytes"]; enc != got {
		return fmt.Errorf("captures report %.0f encoded bytes, storage received %.0f", enc, got)
	}
	return nil
}

func (res *result) print(out io.Writer, w *workload, seed int64, traced bool) error {
	mode := "end-to-end"
	if traced {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(out, "# %s seed=%d %s rounds=%d op: %s\n", w.name, seed, mode, res.rounds, w.op)
	for _, l := range res.lines {
		fmt.Fprintln(out, l)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(b))
	return err
}

// record is one line of a -record file.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  int     `json:"seconds"`
	Trace    bool    `json:"trace"`
	Result   *result `json:"result"`
}

func appendRecord(path, workload string, seed int64, seconds int, traced bool, res *result) error {
	b, err := json.Marshal(record{workload, seed, seconds, traced, res})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
