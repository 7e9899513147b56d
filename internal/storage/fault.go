package storage

import (
	"errors"
	"math/rand"
	"sync"
)

// ErrFault reports an injected storage fault: the transfer crashed
// mid-flight and whatever bytes were already streamed are left behind as
// a torn object. Callers distinguish it from ErrTargetUnavailable because the
// target itself may still be up (a lone bad write, not an outage).
var ErrFault = errors.New("storage: injected write fault")

// FaultPolicy injects storage faults at per-operation granularity,
// extending the whole-server Fail/Recover hooks down to individual
// writes. It models the three failure shapes Skjellum et al. argue real
// C/R libraries must survive: an I/O error that tears the in-flight
// object, a silent tail loss on a commit that skipped the durability
// barrier, and a mid-transfer outage that takes the whole target down.
//
// All draws come from Rng, so a cluster-seeded policy makes every fault
// sequence reproducible. A nil *FaultPolicy injects nothing.
type FaultPolicy struct {
	// WriteFault is the per-Write probability that the transfer crashes
	// mid-flight. A uniform fraction of the payload still lands (the torn
	// prefix a real in-place writer leaves on disk) and the writer is
	// poisoned: the crash happened, nobody gets to Abort the debris.
	WriteFault float64
	// OutageFrac is the fraction of injected write crashes that escalate
	// to a whole-target outage (the checkpoint server dying mid-transfer).
	// Only targets with an outage notion (the remote Server) honour it.
	OutageFrac float64
	// SilentTear is the per-commit probability that a *non-durable*
	// commit silently loses a uniform tail of the object: the write call
	// chain reported success but the data never fully reached the
	// platters. Commits behind the durability barrier (an atomic Write's
	// sync-before-publish) are immune — that barrier is the fix.
	SilentTear float64
	// PublishFault is the per-Publish probability that the atomic rename
	// fails cleanly: the staging object stays, the final name is
	// untouched, and the caller sees an error it can retry.
	PublishFault float64

	// Rng drives every draw; seed it from the cluster RNG for
	// deterministic replay. Required when any probability is nonzero.
	Rng *rand.Rand

	// OnOutage is invoked (if set) when a write crash escalates to an
	// outage, after the target has been taken down — the cluster layer
	// uses it to schedule the server's recovery.
	OnOutage func()

	// Injection counts, for tests and experiment tables.
	Crashes      int
	Outages      int
	Tears        int
	PublishFails int

	// mu serialises draws and counter updates: one policy is shared by a
	// server and its concurrent replica writers.
	mu sync.Mutex
}

// crashWrite decides whether one Write call crashes. It returns the
// fraction of the payload that still lands and whether the crash
// escalates to an outage (only when outageOK).
func (fp *FaultPolicy) crashWrite(outageOK bool) (keepFrac float64, outage, crash bool) {
	if fp == nil || fp.WriteFault <= 0 {
		return 0, false, false
	}
	fp.mu.Lock()
	defer fp.mu.Unlock()
	if fp.Rng.Float64() >= fp.WriteFault {
		return 0, false, false
	}
	fp.Crashes++
	keepFrac = fp.Rng.Float64()
	if outageOK && fp.Rng.Float64() < fp.OutageFrac {
		fp.Outages++
		outage = true
	}
	return keepFrac, outage, true
}

// tearCommit decides whether a non-durable commit silently loses its
// tail, returning the fraction of the object that survives.
func (fp *FaultPolicy) tearCommit() (keepFrac float64, tear bool) {
	if fp == nil || fp.SilentTear <= 0 {
		return 0, false
	}
	fp.mu.Lock()
	defer fp.mu.Unlock()
	if fp.Rng.Float64() >= fp.SilentTear {
		return 0, false
	}
	fp.Tears++
	return fp.Rng.Float64(), true
}

// failPublish decides whether one Publish attempt fails.
func (fp *FaultPolicy) failPublish() bool {
	if fp == nil || fp.PublishFault <= 0 {
		return false
	}
	fp.mu.Lock()
	defer fp.mu.Unlock()
	if fp.Rng.Float64() >= fp.PublishFault {
		return false
	}
	fp.PublishFails++
	return true
}
