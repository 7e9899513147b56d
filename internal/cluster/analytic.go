package cluster

import (
	"math/rand"

	"repro/internal/policy"
	"repro/internal/simtime"
)

// StoragePolicy is where the analytic job writes its checkpoints —
// Table 1's storage column turned into a fault-tolerance policy.
type StoragePolicy uint8

// Storage policies.
const (
	// StoreNone: no checkpointing at all; every failure restarts from zero.
	StoreNone StoragePolicy = iota
	// StoreLocal: node-local disk; survives transient failures (reboot)
	// but not permanent ones (node replaced — "checkpoint data cannot be
	// retrieved in case of a failure of the machine", §4.1).
	StoreLocal
	// StoreRemote: the checkpoint server; survives both.
	StoreRemote
)

func (s StoragePolicy) String() string {
	switch s {
	case StoreLocal:
		return "local"
	case StoreRemote:
		return "remote"
	}
	return "none"
}

// JobConfig describes an analytic job run.
type JobConfig struct {
	// Work is the failure-free compute time the job needs.
	Work simtime.Duration
	// CkptCost is the time to take and store one checkpoint.
	CkptCost simtime.Duration
	// RestartCost is the time to load a checkpoint and resume.
	RestartCost simtime.Duration
	// RepairTime is node downtime after a failure before work resumes
	// (reboot, or re-allocation to a spare).
	RepairTime simtime.Duration
	// Policy is the checkpoint cadence policy, consulted before every
	// segment with the estimator's live state (policy.Fixed for the
	// classic configured interval; a youngdaly spec with no base
	// interval for §1's re-derive-every-segment behaviour, unclamped
	// Young from the live MTBF estimate). A zero Spec disables
	// checkpointing.
	Policy policy.Spec
	// Storage is the checkpoint placement policy.
	Storage StoragePolicy
	// PermanentFrac is the fraction of failures that destroy the node
	// (and with it any local checkpoints).
	PermanentFrac float64
	// PriorMTBF seeds the estimator.
	PriorMTBF simtime.Duration
}

// JobResult summarizes one analytic run.
type JobResult struct {
	Completed    bool
	Makespan     simtime.Duration
	Failures     int
	Checkpoints  int
	Restarts     int
	LostWork     simtime.Duration
	CkptOverhead simtime.Duration
	// Utilization is Work/Makespan ∈ (0,1].
	Utilization float64
}

// SimulateJob runs the analytic model: compute in checkpoint-delimited
// segments, draw fail-stop failures from the model, and resolve each
// failure against the storage policy. A run whose makespan passes 1000×
// Work is abandoned incomplete.
func SimulateJob(cfg JobConfig, fm FailureModel, rng *rand.Rand) JobResult {
	maxTime := 1000 * cfg.Work
	est := policy.NewMTBFEstimator(cfg.PriorMTBF)
	if est.Prior == 0 {
		est.Prior = fm.MTBF()
	}

	var res JobResult
	now := simtime.Duration(0)
	durable := simtime.Duration(0) // work secured by the last usable checkpoint
	nextFail := fm.NextGap(rng)

	for durable < cfg.Work {
		if now > maxTime {
			res.Makespan = now
			return res
		}
		// Choose the next segment.
		var seg simtime.Duration
		ckptAfter := false
		if !cfg.Policy.Enabled() {
			seg = cfg.Work - durable
		} else {
			iv := cfg.Policy.IntervalFor(cfg.CkptCost, est.Estimate())
			if iv <= 0 {
				iv = cfg.Work
			}
			seg = iv
			if seg >= cfg.Work-durable {
				seg = cfg.Work - durable
			} else {
				ckptAfter = true
			}
		}
		segSpan := seg
		if ckptAfter {
			segSpan += cfg.CkptCost
		}

		if nextFail < now+segSpan {
			// Failure mid-segment (or mid-checkpoint).
			ran := nextFail - now
			if ran < 0 {
				ran = 0
			}
			workDone := ran
			if workDone > seg {
				workDone = seg // checkpoint writing adds no work
			}
			est.ObserveUptime(ran)
			est.ObserveFailure()
			res.Failures++
			res.LostWork += workDone

			permanent := rng.Float64() < cfg.PermanentFrac
			switch {
			case cfg.Storage == StoreNone,
				cfg.Storage == StoreLocal && permanent:
				// All progress (and for local: the checkpoints too) is gone.
				res.LostWork += durable
				durable = 0
			}
			now = nextFail + cfg.RepairTime
			if durable > 0 {
				now += cfg.RestartCost
				res.Restarts++
			}
			nextFail = now + fm.NextGap(rng)
			continue
		}

		// Segment (and checkpoint) completed failure-free.
		now += segSpan
		est.ObserveUptime(segSpan)
		durable += seg
		if ckptAfter {
			res.Checkpoints++
			res.CkptOverhead += cfg.CkptCost
		}
	}
	res.Completed = true
	res.Makespan = now
	if now > 0 {
		res.Utilization = float64(cfg.Work) / float64(now)
	}
	return res
}

// AverageResult runs SimulateJob n times and averages the numeric fields;
// Completed is true only if every run completed.
func AverageResult(cfg JobConfig, fm FailureModel, seed int64, n int) JobResult {
	var agg JobResult
	agg.Completed = true
	for i := 0; i < n; i++ {
		rng := rand.New(rand.NewSource(seed + int64(i)*104729))
		r := SimulateJob(cfg, fm, rng)
		agg.Makespan += r.Makespan
		agg.Failures += r.Failures
		agg.Checkpoints += r.Checkpoints
		agg.Restarts += r.Restarts
		agg.LostWork += r.LostWork
		agg.CkptOverhead += r.CkptOverhead
		agg.Utilization += r.Utilization
		agg.Completed = agg.Completed && r.Completed
	}
	agg.Makespan /= simtime.Duration(n)
	agg.LostWork /= simtime.Duration(n)
	agg.CkptOverhead /= simtime.Duration(n)
	agg.Utilization /= float64(n)
	return agg
}
