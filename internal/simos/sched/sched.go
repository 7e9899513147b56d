// Package sched implements the simulated scheduler: a Linux-2.4-flavored
// time-sharing class (dynamic priority that decays as processes run — the
// paper: "the priority is dynamic so it decreases with the time") plus a
// SCHED_FIFO real-time class whose tasks, once runnable, run to completion
// unless an equal-or-higher-priority task exists. The FIFO class is what
// lets a checkpointing kernel thread avoid preemption (§4.1).
package sched

import (
	"repro/internal/simos/proc"
)

// Scheduler selects the next process to run.
type Scheduler struct {
	run []*proc.Process // runnable set, in enqueue order (stable)

	switches    int
	epochs      int
	preemptions int
}

// New returns an empty scheduler.
func New() *Scheduler { return &Scheduler{} }

// Enqueue adds p to the runnable set (idempotent).
func (s *Scheduler) Enqueue(p *proc.Process) {
	for _, q := range s.run {
		if q == p {
			return
		}
	}
	s.run = append(s.run, p)
}

// Dequeue removes p from the runnable set. This is exactly the "removing
// the application from its runqueue list" consistency mechanism the paper
// describes for kernel-thread checkpointing.
func (s *Scheduler) Dequeue(p *proc.Process) {
	for i, q := range s.run {
		if q == p {
			s.run = append(s.run[:i], s.run[i+1:]...)
			return
		}
	}
}

// Runnable returns the current runnable set (live slice copy).
func (s *Scheduler) Runnable() []*proc.Process {
	return append([]*proc.Process(nil), s.run...)
}

// Len returns the number of runnable processes.
func (s *Scheduler) Len() int { return len(s.run) }

// goodness is the selection key for a runnable process. FIFO tasks always
// beat time-sharing tasks; among FIFO, higher StaticPrio wins; among
// time-sharing, higher Counter+StaticPrio wins (decaying dynamic priority).
func goodness(p *proc.Process) int {
	if p.Policy == proc.SchedFIFO {
		return 1<<20 + p.StaticPrio // far above any SchedOther value
	}
	if p.Counter == 0 {
		return 0
	}
	return p.Counter + p.StaticPrio
}

// Pick returns the best runnable process, or nil. When every SchedOther
// task has exhausted its counter (and no FIFO task is runnable), a new
// epoch starts: counters are replenished as counter/2 + proc.QuantumCredits.
func (s *Scheduler) Pick() *proc.Process {
	if len(s.run) == 0 {
		return nil
	}
	best := s.pickOnce()
	if best != nil {
		return best
	}
	// All time-sharing counters exhausted: replenish (epoch boundary).
	s.epochs++
	for _, p := range s.run {
		if p.Policy == proc.SchedOther {
			p.Counter = p.Counter/2 + proc.QuantumCredits
		}
	}
	return s.pickOnce()
}

func (s *Scheduler) pickOnce() *proc.Process {
	var best *proc.Process
	bestG := 0
	for _, p := range s.run {
		if !p.Runnable() {
			continue
		}
		if g := goodness(p); g > bestG {
			best, bestG = p, g
		}
	}
	return best
}

// Tick consumes one tick of p's time slice and reports whether the slice
// is exhausted (time-sharing preemption point). FIFO tasks never expire.
func (s *Scheduler) Tick(p *proc.Process) (expired bool) {
	if p.Policy == proc.SchedFIFO {
		return false
	}
	if p.Counter > 0 {
		p.Counter--
	}
	return p.Counter == 0
}

// Preempts reports whether candidate should preempt current immediately
// (a FIFO task waking up preempts any time-sharing task; a higher-priority
// FIFO task preempts a lower-priority one; the paper: "Processes can not
// interrupt a kernel thread with this schedule priority if they do not
// have the same priority").
func Preempts(candidate, current *proc.Process) bool {
	if current == nil {
		return true
	}
	if candidate.Policy == proc.SchedFIFO {
		return current.Policy != proc.SchedFIFO || candidate.StaticPrio > current.StaticPrio
	}
	return false
}

// NoteSwitch records a context switch for statistics.
func (s *Scheduler) NoteSwitch() { s.switches++ }

// NotePreemption records an involuntary preemption.
func (s *Scheduler) NotePreemption() { s.preemptions++ }

// Stats returns (context switches, replenish epochs, preemptions).
func (s *Scheduler) Stats() (switches, epochs, preemptions int) {
	return s.switches, s.epochs, s.preemptions
}
