package syslevel

import (
	"fmt"

	"repro/internal/mechanism"
	"repro/internal/simos/fs"
	"repro/internal/simos/kernel"
	"repro/internal/simos/proc"
	"repro/internal/simos/sig"
	"repro/internal/storage"
	"repro/internal/taxonomy"
)

// signalCore is the kernel-mode-signal family's layer over the mechanism
// core (EPCKPT, CHPOX): a signal whose *default action, in kernel mode,*
// is to checkpoint the receiving process. Delivery is deferred to the
// next kernel→user transition in the target's context — the latency the
// paper criticizes, which E4 measures. Both systems require a
// registration step before a Request.
type signalCore struct {
	mechanism.Core
	sg sig.Signal
}

// action is the kernel-mode default action: capture `current` in process
// context.
func (m *signalCore) action(c any, s sig.Signal) {
	ctx, ok := c.(*kernel.Context)
	if !ok {
		return
	}
	req := m.Take(ctx.P.PID)
	if req == nil {
		return // stray signal: no request outstanding
	}
	captureKernel(ctx.K, ctx.P, ctx.P, req.Tgt, req.Env, captureOpts{mech: m.Name(), seqs: m.Seqs()}, req.Ticket)
}

// Request implements mechanism.Mechanism: the user tool sends the
// checkpoint signal by pid. The signal can come from the kill command
// line or from updating the process's signal structure directly (§4.1);
// either way it is now pending and will act at the next return to user
// mode.
func (m *signalCore) Request(k *kernel.Kernel, p *proc.Process, tgt storage.Target, env *storage.Env) (*mechanism.Ticket, error) {
	t, err := m.Core.Request(k, p, tgt, env)
	if err != nil {
		return nil, err
	}
	if err := k.SendSignal(p, m.sg); err != nil {
		m.Take(p.PID)
		return nil, err
	}
	return t, nil
}

// EPCKPT models Pinheiro's EPCKPT [26]: checkpoint syscalls in the static
// kernel, a new default kernel signal to invoke the checkpoint, and
// command-line tools — applications must be *launched* through the tool,
// which traces them during execution (runtime overhead), after which any
// process can be checkpointed by pid.
type EPCKPT struct {
	signalCore
}

// NewEPCKPT returns an EPCKPT instance (Table 1 row 3: no source
// modification, so transparent).
func NewEPCKPT() *EPCKPT {
	return &EPCKPT{signalCore{Core: mechanism.NewCore(mechanism.Rules{
		Features: taxonomy.Features{
			Name: "EPCKPT", Context: taxonomy.SystemLevel, Agent: taxonomy.AgentSyscall,
			Transparent: true,
			Storage:     []storage.Kind{storage.KindLocal, storage.KindRemote},
			Initiation:  taxonomy.InitUser,
		},
		Key:     "EPCKPT",
		Refusal: fmt.Errorf("%w: EPCKPT: launch the application via the epckpt tool first", mechanism.ErrNotRegistered),
	})}}
}

// Install implements mechanism.Mechanism: static kernel change adding the
// checkpoint signal.
func (m *EPCKPT) Install(k *kernel.Kernel) error {
	return m.Bind(k, func() error {
		m.sg = k.SigTable.Register("SIGCKPT(epckpt)", m.action)
		return nil
	})
}

// Setup implements mechanism.Mechanism: the launch tool registers the
// process and traces it (the paper: "thus incurring undesirable
// overhead" — modeled as a fixed trace charge at launch).
func (m *EPCKPT) Setup(k *kernel.Kernel, p *proc.Process) error {
	if err := m.Bound(k); err != nil {
		return err
	}
	m.Enroll(p)
	k.Charge(k.CM.Syscall()*4, "epckpt-launch-trace")
	return nil
}

// CHPOX models Sudakov & Meshcheryakov's CHPOX [36]: a kernel module that
// creates a /proc entry for registration and repurposes SIGSYS as the
// checkpoint signal; checkpoints are stored locally.
type CHPOX struct {
	signalCore
	procPath string
}

// NewCHPOX returns a CHPOX instance (Table 1 row 6).
func NewCHPOX() *CHPOX {
	return &CHPOX{
		signalCore: signalCore{Core: mechanism.NewCore(mechanism.Rules{
			Features: taxonomy.Features{
				Name: "CHPOX", Context: taxonomy.SystemLevel, Agent: taxonomy.AgentKernelSignal,
				Transparent:  true,
				Storage:      []storage.Kind{storage.KindLocal},
				Initiation:   taxonomy.InitUser,
				KernelModule: true,
			},
			Key:     "CHPOX",
			Refusal: fmt.Errorf("%w: CHPOX: write the pid to /proc/chpox first", mechanism.ErrNotRegistered),
		}), sg: sig.SIGSYS},
		procPath: "/proc/chpox",
	}
}

// ModuleName implements kernel.Module.
func (m *CHPOX) ModuleName() string { return "chpox" }

// Load implements kernel.Module: take over SIGSYS and create the /proc
// entry whose writes register pids.
func (m *CHPOX) Load(k *kernel.Kernel) error {
	return m.Bind(k, func() error {
		k.SigTable.Override(sig.SIGSYS, "SIGSYS(chpox)", m.action)
		_, err := k.FS.RegisterProc(m.procPath, &fs.ProcOps{
			Read: func(ctx any) ([]byte, error) {
				n := 0
				for _, p := range k.Procs.All() {
					if p.Registered["CHPOX"] {
						n++
					}
				}
				return []byte(fmt.Sprintf("chpox: %d registered\n", n)), nil
			},
			Write: func(ctx any, data []byte) error {
				var pid int
				if _, err := fmt.Sscanf(string(data), "%d", &pid); err != nil {
					return fmt.Errorf("chpox: bad pid %q", data)
				}
				p, err := k.Procs.Lookup(proc.PID(pid))
				if err != nil {
					return err
				}
				m.Enroll(p)
				return nil
			},
		})
		return err
	})
}

// Unload implements kernel.Module.
func (m *CHPOX) Unload(k *kernel.Kernel) error {
	if err := m.Unbind(k); err != nil {
		return err
	}
	k.SigTable.Unregister(sig.SIGSYS)
	return k.FS.Remove(m.procPath)
}

// Install implements mechanism.Mechanism (module load).
func (m *CHPOX) Install(k *kernel.Kernel) error {
	if k.ModuleLoaded(m.ModuleName()) {
		return nil
	}
	return k.LoadModule(m)
}

// Setup implements mechanism.Mechanism: write the pid to /proc/chpox, as
// the real package requires before checkpointing.
func (m *CHPOX) Setup(k *kernel.Kernel, p *proc.Process) error {
	if err := m.Bound(k); err != nil {
		return err
	}
	of, err := k.FS.Open(m.procPath, fs.OWrite)
	if err != nil {
		return err
	}
	defer of.Close()
	k.Charge(k.CM.Syscall()*3, "chpox-register") // open+write+close from the tool
	_, err = of.Write(nil, []byte(fmt.Sprintf("%d", p.PID)))
	return err
}
