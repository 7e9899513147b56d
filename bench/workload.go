package main

import (
	"fmt"
	"os"

	"repro/internal/checkpoint"
	"repro/internal/costmodel"
	"repro/internal/simos/kernel"
	"repro/internal/simos/proc"
	"repro/internal/simtime"
	"repro/internal/storage"
)

// width is the capture and replay worker-pool width of every workload.
const width = 2

// config is one run's inputs.
type config struct {
	// seed is the workload seed; every generated input derives from it.
	seed int64
	// tiny selects test-sized inputs.
	tiny bool
	// tr is nil for untraced runs.
	tr  *tracer
	rec *recorder
	// corrupt flips one byte of one stored shard after restore-storm's
	// set-up: a negative test of the benchmark's own verification.
	corrupt bool
	// keepEvents keeps each round's rendered orchestration event log in
	// rec.events, for the self-tests' equivalence checks.
	keepEvents bool
}

// roundFunc runs round i and returns its simulated duration in ms.
type roundFunc func(i int) (float64, error)

// A workload is one named input set. Its measured phase is a sequence of
// rounds: at least simRounds of them, whose simulated-clock samples are
// reported, and then more until the time budget is spent.
type workload struct {
	name string
	why  string
	// op names the unit operation the host_ms and sim_ms metrics time.
	op string
	// parallel is the share of its host time the workload needs a second
	// core for; it weights the two-goroutine reference (see speed.go).
	parallel   float64
	simRounds  int
	tinyRounds int
	setup      func(cfg config) (roundFunc, error)
}

var workloads = []*workload{ckptStream, restoreStorm, jobFailover, fleet10k}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// derive returns the seed of one generated input. Each input draws from
// its own stream, so adding an input leaves the others unchanged.
func derive(seed int64, tag uint64) uint64 {
	x := uint64(seed) ^ tag*0x9e3779b97f4a7c15
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// logf reports a failed check on standard error; the result line counts
// it as a failed op.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
}

// erasureStore is the library workloads' storage: a 2+1 erasure-coded
// storage.Replicated over three local disks, the second and third reached
// over the wire. Disk 0 can be taken down to force reconstruction reads.
type erasureStore struct {
	tgt     storage.Target
	disks   []*storage.Local
	disk0Up bool
}

func newErasureStore(cm *costmodel.Model, tr *tracer) (*erasureStore, error) {
	s := &erasureStore{disk0Up: true}
	reps := make([]storage.Replica, 3)
	for i := range reps {
		alive := func() bool { return true }
		if i == 0 {
			alive = func() bool { return s.disk0Up }
		}
		d := storage.NewLocal(fmt.Sprintf("disk%d", i), cm, alive)
		s.disks = append(s.disks, d)
		var t storage.Target = d
		if i > 0 {
			t = storage.OverWire(d, cm)
		}
		if tr != nil {
			t = traceTarget(t, tr, "storage.member")
		}
		reps[i] = storage.Replica{T: t, Role: storage.RoleShard}
	}
	r, err := storage.NewReplicated("erasure", reps, storage.ReplicatedConfig{DataShards: 2, ParityShards: 1})
	if err != nil {
		return nil, err
	}
	s.tgt = r
	if tr != nil {
		s.tgt = traceTarget(r, tr, "storage")
	}
	return s, nil
}

func traceProgram(p kernel.Program, tr *tracer) kernel.Program {
	if tr == nil {
		return p
	}
	return tracedProgram{Program: p, tr: tr}
}

// machine is one simulated host running a process under a kernel
// write-protect tracker, checkpointed by direct Capture calls.
type machine struct {
	k   *kernel.Kernel
	p   *proc.Process
	trk checkpoint.Tracker
	tr  *tracer
	// epoch namespaces the machine's object names on shared storage.
	epoch uint64
	seq   uint64
}

// newMachine boots a kernel, spawns prog (registered in reg), runs it for
// warm iterations and arms the tracker.
func newMachine(name string, cm *costmodel.Model, reg *kernel.Registry, prog kernel.Program,
	warm uint64, epoch uint64, tr *tracer) (*machine, error) {
	k := kernel.New(kernel.DefaultConfig(name), cm, reg)
	p, err := k.Spawn(prog.Name())
	if err != nil {
		return nil, err
	}
	m := &machine{k: k, p: p, tr: tr, epoch: epoch}
	if err := m.step(warm); err != nil {
		return nil, err
	}
	var trk checkpoint.Tracker = checkpoint.NewKernelWPTracker(k, p)
	if tr != nil {
		trk = &tracedTracker{Tracker: trk, tr: tr}
	}
	if err := trk.Arm(); err != nil {
		return nil, err
	}
	m.trk = trk
	return m, nil
}

// step runs the process for n more iterations.
func (m *machine) step(n uint64) error {
	m.tr.begin("simos.run")
	defer m.tr.end()
	target := m.p.Regs().PC + n
	for m.p.Regs().PC < target {
		if m.p.State == proc.StateZombie {
			return fmt.Errorf("%s: process exited at iteration %d", m.k.Cfg.Hostname, m.p.Regs().PC)
		}
		m.k.RunFor(10 * simtime.Microsecond)
	}
	return nil
}

// capture publishes a full image when parent is empty, else a delta of
// the pages written since the previous capture, chained onto parent.
// A full image is captured without the tracker so that it holds every
// resident page, text included; the dirty set collected so far is
// dropped because the full image covers it.
func (m *machine) capture(tgt storage.Target, env *storage.Env, parent string) (*checkpoint.Image, checkpoint.Stats, error) {
	m.k.Stop(m.p)
	defer m.k.Wake(m.p)
	trk := m.trk
	if parent == "" {
		if _, err := m.trk.Collect(); err != nil {
			return nil, checkpoint.Stats{}, err
		}
		trk = nil
	}
	m.seq++
	m.tr.begin("checkpoint.capture")
	defer m.tr.end()
	return checkpoint.Capture(checkpoint.Request{
		Acc:         &checkpoint.KernelAccessor{K: m.k, P: m.p},
		Trk:         trk,
		Target:      tgt,
		Env:         env,
		Mechanism:   "bench",
		Hostname:    m.k.Cfg.Hostname,
		Seq:         m.seq,
		Parent:      parent,
		Epoch:       m.epoch,
		Now:         m.k.Now(),
		Parallelism: width,
	})
}

// checkSum compares a restored process's memory checksum with the one it
// must reproduce.
func checkSum(got, want uint64) error {
	if got != want {
		return fmt.Errorf("restored checksum %#x, want %#x", got, want)
	}
	return nil
}
