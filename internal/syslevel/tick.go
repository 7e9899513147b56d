package syslevel

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/mechanism"
	"repro/internal/simos/kernel"
	"repro/internal/simos/proc"
	"repro/internal/simtime"
	"repro/internal/storage"
	"repro/internal/taxonomy"
)

// simtime helpers shared inside the package.
const (
	simtimeTick   = 100 * simtime.Microsecond
	simtimeSecond = simtime.Second
)

// TICK is the paper's "direction forward" made concrete: a Transparent
// Incremental Checkpointer at Kernel level. It combines everything §4.1
// and §5 argue for and that no surveyed package provides:
//
//   - a kernel thread in a loadable module (portability, SCHED_FIFO
//     priority, interrupt deferral during capture),
//   - full transparency (no source changes, no registration, no library),
//   - incremental checkpointing with kernel page-fault dirty tracking —
//     "there is no implementation of incremental checkpointing for Linux
//     up to now" (§4.1),
//   - automatic, system-level initiation: a kernel timer checkpoints
//     attached processes periodically, the self-managing behaviour
//     autonomic computing requires (§1), and
//   - local or remote stable storage.
//
// (The LANL authors later published exactly this system as "TICK".)
type TICK struct {
	threadMech
	// DeferInterrupts runs captures with device interrupts deferred —
	// the mechanism §4.1 says is needed; ablation switch for E4.
	DeferInterrupts bool
	// MaxChain bounds the incremental chain: after this many deltas the
	// next checkpoint is full again, bounding restart latency (the role
	// chain coalescing plays offline — see checkpoint.FoldChain).
	MaxChain int

	trackers map[proc.PID]*checkpoint.WPTracker
	timers   map[proc.PID]*simtime.Event
	deltas   map[proc.PID]int
}

// NewTICK returns a TICK instance.
func NewTICK() *TICK {
	m := &TICK{
		threadMech:      threadMech{name: "TICK", devPath: "/dev/tick", policy: proc.SchedFIFO, rtprio: 60},
		DeferInterrupts: true,
		MaxChain:        16,
		trackers:        make(map[proc.PID]*checkpoint.WPTracker),
		timers:          make(map[proc.PID]*simtime.Event),
		deltas:          make(map[proc.PID]int),
	}
	m.optsFor = func() captureOpts { return captureOpts{mech: "TICK", noInterrupts: m.DeferInterrupts} }
	return m
}

// Name implements mechanism.Mechanism.
func (m *TICK) Name() string { return "TICK" }

// Features implements mechanism.Mechanism: the extended Table 1 row for
// the proposed system.
func (m *TICK) Features() taxonomy.Features {
	return taxonomy.Features{
		Name: "TICK", Context: taxonomy.SystemLevel, Agent: taxonomy.AgentKernelThread,
		Incremental:   true,
		Transparent:   true,
		Storage:       []storage.Kind{storage.KindLocal, storage.KindRemote},
		Initiation:    taxonomy.InitAutomatic,
		KernelModule:  true,
		Multithreaded: true,
	}
}

// ModuleName implements kernel.Module.
func (m *TICK) ModuleName() string { return "tick" }

// Load implements kernel.Module.
func (m *TICK) Load(k *kernel.Kernel) error { return m.load(k) }

// Unload implements kernel.Module.
func (m *TICK) Unload(k *kernel.Kernel) error {
	for pid, t := range m.trackers {
		t.Close()
		delete(m.trackers, pid)
	}
	for pid, ev := range m.timers {
		ev.Cancel()
		delete(m.timers, pid)
	}
	return m.unload(k)
}

// Install implements mechanism.Mechanism.
func (m *TICK) Install(k *kernel.Kernel) error {
	if k.ModuleLoaded(m.ModuleName()) {
		return nil
	}
	return k.LoadModule(m)
}

// Prepare implements mechanism.Mechanism: fully transparent.
func (m *TICK) Prepare(prog kernel.Program) kernel.Program { return prog }

// Setup implements mechanism.Mechanism: nothing required — attachment
// happens either per Request (user-initiated) or via Attach (automatic).
func (m *TICK) Setup(k *kernel.Kernel, p *proc.Process) error { return nil }

// tracker returns (arming on first use) the incremental tracker for p.
func (m *TICK) tracker(k *kernel.Kernel, p *proc.Process) (*checkpoint.WPTracker, error) {
	if t, ok := m.trackers[p.PID]; ok {
		return t, nil
	}
	t := checkpoint.NewKernelWPTracker(k, p)
	if err := t.Arm(); err != nil {
		return nil, err
	}
	m.trackers[p.PID] = t
	return t, nil
}

// Request implements mechanism.Mechanism: one incremental checkpoint via
// the kernel thread.
func (m *TICK) Request(k *kernel.Kernel, p *proc.Process, tgt storage.Target, env *storage.Env) (*mechanism.Ticket, error) {
	if m.threadMech.k != k {
		return nil, mechanism.ErrNotInstalled
	}
	if err := checkStorageKind(m, tgt); err != nil {
		return nil, err
	}
	trk, err := m.tracker(k, p)
	if err != nil {
		return nil, err
	}
	// Chain bounding: after MaxChain deltas, start a fresh full image so
	// restart never replays an unbounded chain.
	rebase := false
	if m.MaxChain > 0 && m.deltas[p.PID] >= m.MaxChain {
		m.seqs.Rebase(p.PID)
		m.deltas[p.PID] = 0
		rebase = true
	}
	m.deltas[p.PID]++
	t := &mechanism.Ticket{RequestedAt: k.Now()}
	opts := m.optsFor()
	opts.seqs = m.seqs
	opts.parallelism = m.capturePar
	if !rebase {
		// A rebase round deliberately captures without the tracker: the
		// fresh full image must cover every resident page, and a Collect
		// here would return only this epoch's dirty set — a silent hole in
		// every chain hanging off the rebase. The uncollected dirty set
		// keeps accumulating, so the next delta ships a safe superset.
		opts.trk = trk
	}
	m.d.enqueue(&ckptRequest{target: p, tgt: tgt, env: env, opts: opts, ticket: t})
	return t, nil
}

// Attach starts automatic-initiated periodic checkpointing of p to tgt:
// a kernel timer enqueues capture work every interval without any user
// or application involvement — the autonomic behaviour of §1. The
// returned stop function detaches.
func (m *TICK) Attach(k *kernel.Kernel, p *proc.Process, tgt storage.Target, env *storage.Env, interval simtime.Duration, onCkpt func(*mechanism.Ticket)) (func(), error) {
	if m.threadMech.k != k {
		return nil, mechanism.ErrNotInstalled
	}
	if interval <= 0 {
		return nil, fmt.Errorf("syslevel: TICK: interval must be positive")
	}
	if _, err := m.tracker(k, p); err != nil {
		return nil, err
	}
	stopped := false
	var schedule func()
	schedule = func() {
		m.timers[p.PID] = k.Eng.After(interval, func() {
			if stopped || p.State == proc.StateZombie || p.State == proc.StateDead {
				return
			}
			t, err := m.Request(k, p, tgt, env)
			if err == nil && onCkpt != nil {
				origDone := t
				// Poll completion from a cheap follow-up event; a detach
				// cancels any in-flight notification.
				var watch func()
				watch = func() {
					if stopped {
						return
					}
					if origDone.Done {
						onCkpt(origDone)
						return
					}
					k.Eng.After(simtimeTick, watch)
				}
				k.Eng.After(simtimeTick, watch)
			}
			schedule()
		})
	}
	schedule()
	return func() {
		stopped = true
		if ev, ok := m.timers[p.PID]; ok {
			ev.Cancel()
			delete(m.timers, p.PID)
		}
		if trk, ok := m.trackers[p.PID]; ok {
			trk.Close()
			delete(m.trackers, p.PID)
		}
	}, nil
}

// Restart implements mechanism.Mechanism: chains restore oldest-first.
func (m *TICK) Restart(k *kernel.Kernel, chain []*checkpoint.Image, enqueue bool) (*proc.Process, error) {
	return checkpoint.Restore(k, chain, checkpoint.RestoreOptions{Enqueue: enqueue})
}
