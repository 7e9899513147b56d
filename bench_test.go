// Benchmarks regenerating every artifact of the paper: F1 (Figure 1),
// T1 (Table 1), and the derived experiments E1–E13 of DESIGN.md §3.
// Each benchmark runs the corresponding generator; simulated-time results
// are attached as custom metrics (ns of *simulated* time are reported as
// "sim-ms/op" style metrics where meaningful). Run:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"fmt"
	"strings"
	"testing"

	"repro"
	"repro/internal/checkpoint"
	"repro/internal/experiments"
	"repro/internal/mechanism"
	"repro/internal/simtime"
)

func BenchmarkF1Figure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if !strings.Contains(repro.Figure1(), "system-level") {
			b.Fatal("bad figure")
		}
	}
}

func BenchmarkT1Table(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(repro.Table1Diff()) != 0 {
			b.Fatal("Table 1 mismatch")
		}
	}
}

// BenchmarkExperiments runs each of E1–E13 at quick size and fails on
// any violation of its experiments.Gates rows. E9 renders Table 1's
// restart matrix, whose shape TestE9MatrixShape checks.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range experiments.All {
		if e.N > 13 {
			continue
		}
		e := e
		b.Run(fmt.Sprintf("E%d", e.N), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if e.Table != nil {
					e.Table()
					continue
				}
				for _, v := range experiments.Check(e.Run(true)) {
					b.Error(v)
				}
			}
		})
	}
}

// --- Micro-benchmarks on the core engine ---

// benchCapture measures one full kernel-level capture of a dense image.
func benchCapture(b *testing.B, mib int) {
	app := repro.Dense{MiB: mib}
	reg := repro.NewRegistry()
	reg.MustRegister(app)
	k := repro.NewMachine("bench", reg)
	m := repro.NewCRAK()
	if err := m.Install(k); err != nil {
		b.Fatal(err)
	}
	p, err := k.Spawn(app.Name())
	if err != nil {
		b.Fatal(err)
	}
	repro.SetIterations(p, 1<<30)
	for p.Regs().PC < 1 {
		k.RunFor(repro.Millisecond)
	}
	disk := repro.NewLocalDisk("d")
	b.SetBytes(int64(mib) << 20)
	b.ResetTimer()
	var simTotal simtime.Duration
	for i := 0; i < b.N; i++ {
		tk, err := repro.Checkpoint(m, k, p, disk)
		if err != nil {
			b.Fatal(err)
		}
		simTotal += tk.Total()
	}
	b.ReportMetric(float64(simTotal.Millis())/float64(b.N), "sim-ms/ckpt")
}

func BenchmarkCaptureFull16MiB(b *testing.B) { benchCapture(b, 16) }
func BenchmarkCaptureFull64MiB(b *testing.B) { benchCapture(b, 64) }

func BenchmarkIncrementalDelta(b *testing.B) {
	app := repro.Sparse{MiB: 16, WriteFrac: 0.05, Seed: 9}
	reg := repro.NewRegistry()
	reg.MustRegister(app)
	k := repro.NewMachine("bench", reg)
	tick := repro.NewTICK()
	tick.MaxChain = 0 // unbounded chain: every capture after the first is a delta
	if err := tick.Install(k); err != nil {
		b.Fatal(err)
	}
	p, _ := k.Spawn(app.Name())
	repro.SetIterations(p, 1<<30)
	disk := repro.NewLocalDisk("d")
	if _, err := repro.Checkpoint(tick, k, p, disk); err != nil {
		b.Fatal(err) // full baseline
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.RunFor(repro.Millisecond)
		tk, err := repro.Checkpoint(tick, k, p, disk)
		if err != nil {
			b.Fatal(err)
		}
		if tk.Img.Mode != checkpoint.ModeIncremental {
			b.Fatal("not incremental")
		}
	}
}

func BenchmarkRestore64MiB(b *testing.B) {
	app := repro.Dense{MiB: 64}
	reg := repro.NewRegistry()
	reg.MustRegister(app)
	k := repro.NewMachine("bench", reg)
	m := repro.NewCRAK()
	m.Install(k)
	p, _ := k.Spawn(app.Name())
	repro.SetIterations(p, 1<<30)
	for p.Regs().PC < 1 {
		k.RunFor(repro.Millisecond)
	}
	tk, err := repro.Checkpoint(m, k, p, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(64 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst := repro.NewMachine("dst", reg)
		m2 := repro.NewCRAK()
		m2.Install(dst)
		if _, err := m2.Restart(dst, []*repro.Image{tk.Img}, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkImageCodec(b *testing.B) {
	app := repro.Dense{MiB: 16}
	reg := repro.NewRegistry()
	reg.MustRegister(app)
	k := repro.NewMachine("bench", reg)
	m := repro.NewCRAK()
	m.Install(k)
	p, _ := k.Spawn(app.Name())
	repro.SetIterations(p, 1<<30)
	for p.Regs().PC < 1 {
		k.RunFor(repro.Millisecond)
	}
	tk, err := mechanism.Checkpoint(m, k, p, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	data, err := tk.Img.EncodeBytes()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc, err := tk.Img.EncodeBytes()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := checkpoint.Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationTrackers compares the dirty trackers under one
// mechanism, the DESIGN.md §4 ablation.
func BenchmarkAblationTrackers(b *testing.B) {
	for _, cfg := range []struct {
		name string
		mk   func(k *repro.Kernel, p *repro.Process) checkpoint.Tracker
	}{
		{"full", func(k *repro.Kernel, p *repro.Process) checkpoint.Tracker {
			return &checkpoint.FullTracker{AS: p.AS}
		}},
		{"kernel-wp", func(k *repro.Kernel, p *repro.Process) checkpoint.Tracker {
			return checkpoint.NewKernelWPTracker(k, p)
		}},
		{"hash-1KiB", func(k *repro.Kernel, p *repro.Process) checkpoint.Tracker {
			t, _ := checkpoint.NewHashTracker(&checkpoint.KernelAccessor{K: k, P: p}, k, k.CM, 1024, 64)
			return t
		}},
		{"hybrid-256B", func(k *repro.Kernel, p *repro.Process) checkpoint.Tracker {
			t, _ := checkpoint.NewHybridTracker(k, p, k, 256)
			return t
		}},
	} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			app := repro.Sparse{MiB: 8, WriteFrac: 0.05, Seed: 4}
			reg := repro.NewRegistry()
			reg.MustRegister(app)
			k := repro.NewMachine("bench", reg)
			p, _ := k.Spawn(app.Name())
			repro.SetIterations(p, 1<<30)
			for p.Regs().PC < 1 {
				k.RunFor(repro.Millisecond)
			}
			trk := cfg.mk(k, p)
			if err := trk.Arm(); err != nil {
				b.Fatal(err)
			}
			defer trk.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.RunFor(repro.Millisecond)
				if _, err := trk.Collect(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
