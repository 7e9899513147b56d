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
// It is a full member of the kernel-thread family: the shared core takes
// its requests, and a plain Request is the kernel's own (no ioctl tool):
// the next capture on the process's checkpoint.DeltaChain, the same
// chain rule the cluster agents use, so a failed write's ranges ride
// into the next delta. RequestDelta is the tool's ioctl path, as for
// CRAK, which lets the autonomic supervisor run on TICK.
//
// (The LANL authors later published exactly this system as "TICK".)
type TICK struct {
	threadMech
	// DeferInterrupts runs captures with device interrupts deferred —
	// the mechanism §4.1 says is needed; ablation switch for E4.
	DeferInterrupts bool
	// MaxChain bounds the incremental chain: after this many captures
	// the next checkpoint is full again, bounding restart latency (the
	// role chain coalescing plays offline — see checkpoint.FoldChain).
	// A process's chain reads it when it starts; 0 never rebases.
	MaxChain int
}

// NewTICK returns a TICK instance, whose features are the extended
// Table 1 row for the proposed system.
func NewTICK() *TICK {
	m := &TICK{
		threadMech:      threadMech{devPath: "/dev/tick", policy: proc.SchedFIFO, rtprio: 60},
		DeferInterrupts: true,
		MaxChain:        16,
	}
	m.optsFor = func() captureOpts { return captureOpts{noInterrupts: m.DeferInterrupts} }
	m.init(m, mechanism.Rules{Features: taxonomy.Features{
		Name: "TICK", Context: taxonomy.SystemLevel, Agent: taxonomy.AgentKernelThread,
		Incremental:   true,
		Transparent:   true,
		Storage:       []storage.Kind{storage.KindLocal, storage.KindRemote},
		Initiation:    taxonomy.InitAutomatic,
		KernelModule:  true,
		Multithreaded: true,
	}})
	return m
}

// RequestDelta implements mechanism.DeltaRequester: the ioctl path CRAK
// takes, with the caller's tracker, epoch and rebase in place of the
// process's own chain.
func (m *TICK) RequestDelta(k *kernel.Kernel, p *proc.Process, tgt storage.Target, env *storage.Env,
	trk checkpoint.Tracker, epoch uint64, rebase bool) (*mechanism.Ticket, error) {
	return m.ioctl(k, p, tgt, env, &mechanism.Delta{Trk: trk, Epoch: epoch, Rebase: rebase})
}

// Request implements mechanism.Mechanism: the kernel's own request for
// the next capture on p's chain, whose tracker it arms on first use.
func (m *TICK) Request(k *kernel.Kernel, p *proc.Process, tgt storage.Target, env *storage.Env) (*mechanism.Ticket, error) {
	return m.submit(k, p, tgt, env, nil, func(req *ckptRequest) error {
		if _, err := m.track(k, p); err != nil {
			return err
		}
		return m.d.enqueue(req)
	})
}

// track returns p's chain, arming its dirty tracking, which rebases
// every MaxChain captures.
func (m *TICK) track(k *kernel.Kernel, p *proc.Process) (*mechanism.Chain, error) {
	c := m.Chain(p.PID)
	return c, c.Track(m.MaxChain, func() checkpoint.Tracker { return checkpoint.NewKernelWPTracker(k, p) })
}

// Attach starts automatic-initiated periodic checkpointing of p to tgt:
// a kernel timer enqueues capture work every interval without any user
// or application involvement — the autonomic behaviour of §1. A tick
// that finds the previous checkpoint still in flight is skipped. The
// returned stop function detaches and releases p's tracker.
func (m *TICK) Attach(k *kernel.Kernel, p *proc.Process, tgt storage.Target, env *storage.Env, interval simtime.Duration, onCkpt func(*mechanism.Ticket)) (func(), error) {
	if err := m.Bound(k); err != nil {
		return nil, err
	}
	if interval <= 0 {
		return nil, fmt.Errorf("syslevel: TICK: interval must be positive")
	}
	c, err := m.track(k, p)
	if err != nil {
		return nil, err
	}
	stopped := false
	var timer *simtime.Event
	var last *mechanism.Ticket
	var schedule func()
	schedule = func() {
		timer = k.Eng.After(interval, func() {
			if stopped || m.Bound(k) != nil || p.State == proc.StateZombie || p.State == proc.StateDead {
				return
			}
			if last != nil && !last.Done {
				// The previous checkpoint is still in flight: skip this
				// tick rather than queue an empty delta behind it.
				schedule()
				return
			}
			t, err := m.Request(k, p, tgt, env)
			if err == nil {
				last = t
			}
			if err == nil && onCkpt != nil {
				// Poll completion from a cheap follow-up event; a detach
				// cancels any in-flight notification.
				var watch func()
				watch = func() {
					if stopped {
						return
					}
					if t.Done {
						onCkpt(t)
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
		timer.Cancel()
		c.Close()
	}, nil
}
