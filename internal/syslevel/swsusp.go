package syslevel

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/mechanism"
	"repro/internal/simos/kernel"
	"repro/internal/simos/proc"
	"repro/internal/simos/sig"
	"repro/internal/storage"
	"repro/internal/taxonomy"
)

// SoftwareSuspend models swsusp [6]: the hibernation mechanism in the
// official kernel. A new kernel signal freezes every process in the
// system; the RAM image is then saved to the swap partition and the
// machine powers down. At start-up the image is restored and all
// processes resume. Saving to a memory target instead models the standby
// functionality.
type SoftwareSuspend struct {
	mechanism.Core
	freezeSg sig.Signal
}

// NewSoftwareSuspend returns a Software Suspend instance (Table 1 row
// 11). Its restarts keep the saved PIDs.
func NewSoftwareSuspend() *SoftwareSuspend {
	return &SoftwareSuspend{Core: mechanism.NewCore(mechanism.Rules{
		Features: taxonomy.Features{
			Name: "Software Suspend", Context: taxonomy.SystemLevel, Agent: taxonomy.AgentKernelSignal,
			Transparent:  true,
			Storage:      []storage.Kind{storage.KindLocal},
			Initiation:   taxonomy.InitUser,
			WholeMachine: true,
		},
		Restore: checkpoint.RestoreOptions{PreservePID: true},
	})}
}

// Install implements mechanism.Mechanism: swsusp lives in the static
// kernel ("implemented in the official kernel source code") and adds the
// freeze signal.
func (m *SoftwareSuspend) Install(k *kernel.Kernel) error {
	return m.Bind(k, func() error {
		m.freezeSg = k.SigTable.Register("SIGFREEZE(swsusp)", func(c any, s sig.Signal) {
			if ctx, ok := c.(*kernel.Context); ok {
				ctx.K.Stop(ctx.P)
			}
		})
		return nil
	})
}

// Request implements mechanism.Mechanism: checkpointing "one process"
// with swsusp means hibernating the machine it runs on; the ticket's
// image is the requested process's, but every process was saved.
func (m *SoftwareSuspend) Request(k *kernel.Kernel, p *proc.Process, tgt storage.Target, env *storage.Env) (*mechanism.Ticket, error) {
	if err := m.Admit(k, p, tgt); err != nil {
		return nil, err
	}
	t := &mechanism.Ticket{RequestedAt: k.Now(), StartedAt: k.Now()}
	imgs, err := m.Suspend(k, tgt, env)
	var img *checkpoint.Image
	var st checkpoint.Stats
	for _, i := range imgs {
		if i.PID == p.PID {
			img, st = i, checkpoint.Stats{Mode: i.Mode, PayloadBytes: i.PayloadBytes(), Object: i.ObjectName()}
		}
	}
	t.Finish(k.Now(), img, st, err)
	return t, nil
}

// Suspend freezes all user processes, writes their images to the swap
// target, and powers the machine down. Returns the saved images.
func (m *SoftwareSuspend) Suspend(k *kernel.Kernel, tgt storage.Target, env *storage.Env) ([]*checkpoint.Image, error) {
	if err := m.Bound(k); err != nil {
		return nil, err
	}
	if env == nil {
		env = storage.NopEnv()
	}
	// Deliver the freeze signal to every user process ("delivered to
	// every process in the system to freeze their execution").
	var victims []*proc.Process
	for _, p := range k.Procs.All() {
		if p.KernelThread || p.State == proc.StateZombie || p.State == proc.StateDead {
			continue
		}
		_ = k.SendSignal(p, m.freezeSg)
		victims = append(victims, p)
	}
	// Let the signals deliver (each process freezes at its next
	// kernel→user transition).
	deadline := k.Now().Add(simtimeSecond)
	for k.Now() < deadline {
		allStopped := true
		for _, p := range victims {
			if p.State != proc.StateStopped && p.State != proc.StateZombie {
				allStopped = false
			}
		}
		if allStopped {
			break
		}
		k.RunFor(simtimeTick)
	}

	var imgs []*checkpoint.Image
	for _, p := range victims {
		if p.State != proc.StateStopped {
			continue
		}
		img, _, err := m.Capture(k, checkpoint.Request{Acc: &checkpoint.KernelAccessor{K: k, P: p}, Target: tgt, Env: env}, nil)
		if err != nil {
			return nil, fmt.Errorf("swsusp: saving pid %d: %w", p.PID, err)
		}
		imgs = append(imgs, img)
	}
	k.SetHalted(true) // power down
	return imgs, nil
}

// Resume powers the machine back up and restarts every image. The kernel
// may be the same one (reboot) or a fresh instance of the same machine.
func (m *SoftwareSuspend) Resume(k *kernel.Kernel, imgs []*checkpoint.Image) ([]*proc.Process, error) {
	k.SetHalted(false)
	var out []*proc.Process
	for _, img := range imgs {
		// On reboot the old process table is gone; on the same kernel the
		// frozen originals must be cleared first.
		if old, err := k.Procs.Lookup(img.PID); err == nil {
			k.Exit(old, 0)
			k.Procs.Remove(old.PID)
		}
		p, err := m.Restart(k, []*checkpoint.Image{img}, true)
		if err != nil {
			return out, fmt.Errorf("swsusp: resume pid %d: %w", img.PID, err)
		}
		out = append(out, p)
	}
	return out, nil
}
