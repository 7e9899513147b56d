// Root supervisor: owns placement policy across the shard supervisors,
// the ground-truth fault schedule, and the merged orchestration-event
// log. The tick protocol is a barrier cycle: the root broadcasts the
// tick time to every shard loop, the shards process the tick in
// parallel against purely shard-local state, and at the barrier the
// root — alone — merges event batches in fixed shard order, applies
// scheduled ground-truth faults, and places cross-shard migrations.
// Parallelism is real (goroutine per shard, exercised by the -race
// suite); determinism survives because nothing crosses a shard boundary
// except through the barrier.

package cluster

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/simtime"
	"repro/internal/storage"
	"repro/internal/trace"
)

// migrateReq is one job a shard could not place locally, awaiting root
// placement.
type migrateReq struct {
	job  *fleetJob
	from int // source shard (owns the job's old chain objects)
}

// RootSupervisor drives a fleet of shard supervisors.
type RootSupervisor struct {
	cfg FleetConfig
	f   *Fleet

	shards []*shardSup

	// SC holds one counter slot per shard plus a final slot for the
	// root itself, so shard loops never contend on a shared mutex.
	SC      *trace.ShardedCounters
	rootCtr *trace.Counters

	detectHist   *trace.Histogram
	failoverHist *trace.Histogram

	// Events is the merged orchestration log; OnBatch, when set, sees
	// every flushed batch (bounded by fleetEventBatch) as it lands.
	Events  []Event
	OnBatch func([]Event)

	batches  int
	maxBatch int

	pending []migrateReq
	ran     bool
	last    FleetStats
}

// NewRootSupervisor validates cfg, builds the fleet, the shard
// supervisors, and the initial job placement.
func NewRootSupervisor(cfg FleetConfig) (*RootSupervisor, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	r := &RootSupervisor{
		cfg:          cfg,
		f:            newFleet(cfg),
		SC:           trace.NewShardedCounters(cfg.Shards + 1),
		detectHist:   trace.NewHistogram(),
		failoverHist: trace.NewHistogram(),
	}
	r.rootCtr = r.SC.Shard(cfg.Shards)
	chunk := (cfg.Nodes + cfg.Shards - 1) / cfg.Shards
	for s := 0; s < cfg.Shards; s++ {
		lo := s * chunk
		hi := lo + chunk
		if hi > cfg.Nodes {
			hi = cfg.Nodes
		}
		if lo > hi {
			lo = hi
		}
		r.shards = append(r.shards, newShardSup(r, s, lo, hi-lo))
	}
	// Initial placement: jobs round-robin across shards, then across
	// each shard's members; every shard starts at fence epoch 1 so
	// epoch 0 never names a live writer.
	for _, sh := range r.shards {
		sh.fence.Advance()
	}
	for j := 0; j < cfg.Jobs; j++ {
		sh := r.shards[j%cfg.Shards]
		if sh.n == 0 {
			continue
		}
		epoch := sh.fence.Epoch()
		job := &fleetJob{
			id:    j,
			node:  sh.member((j / cfg.Shards) % sh.n),
			epoch: epoch,
			tgt:   sh.writerTarget(epoch),
		}
		sh.jobs = append(sh.jobs, job)
		sh.emit(0, EvAdmit, job.node, epoch, "")
	}
	return r, nil
}

// MustNewRootSupervisor panics on config error.
func MustNewRootSupervisor(cfg FleetConfig) *RootSupervisor {
	r, err := NewRootSupervisor(cfg)
	if err != nil {
		panic(err)
	}
	return r
}

// Fleet exposes the ground-truth substrate (tests, timer accounting).
func (r *RootSupervisor) Fleet() *Fleet { return r.f }

// NumShards returns the shard count.
func (r *RootSupervisor) NumShards() int { return r.cfg.Shards }

// Counters returns a merged snapshot of every shard's counters plus the
// root's.
func (r *RootSupervisor) Counters() *trace.Counters { return r.SC.Merged() }

// Stats returns the last Run's statistics.
func (r *RootSupervisor) Stats() FleetStats { return r.last }

// FailAt schedules a ground-truth failure of node at sim offset at; a
// non-permanent failure reboots after repair. Must be called before Run.
func (r *RootSupervisor) FailAt(at simtime.Duration, node int, perm bool, repair simtime.Duration) error {
	if node < 0 || node >= r.cfg.Nodes {
		return fmt.Errorf("cluster: fleet failure targets node %d outside [0,%d)", node, r.cfg.Nodes)
	}
	if r.ran {
		return fmt.Errorf("cluster: fleet fault scheduled after Run")
	}
	r.f.faults = append(r.f.faults, fleetFault{at: simtime.Time(at), node: node, perm: perm, repair: repair})
	return nil
}

// shardOfNode returns the shard owning a global node id.
func (r *RootSupervisor) shardOfNode(node int) *shardSup {
	for _, sh := range r.shards {
		if node >= sh.base && node < sh.base+sh.n {
			return sh
		}
	}
	return nil
}

// Run drives the fleet for d of simulated time and returns the run's
// statistics. One Run per supervisor: fence epochs, chains, and the
// event log all carry across ticks, not across runs.
func (r *RootSupervisor) Run(d simtime.Duration) FleetStats {
	if r.ran {
		panic("cluster: RootSupervisor.Run called twice")
	}
	r.ran = true
	sort.SliceStable(r.f.faults, func(i, j int) bool { return r.f.faults[i].at < r.f.faults[j].at })

	var wg sync.WaitGroup
	for _, sh := range r.shards {
		wg.Add(1)
		go func(sh *shardSup) {
			defer wg.Done()
			sh.loop()
		}(sh)
	}

	ticks := int(d / r.cfg.Tick)
	if ticks < 1 {
		ticks = 1
	}
	for t := 0; t < ticks; t++ {
		now := r.f.now.Add(r.cfg.Tick)
		r.f.now = now
		for _, sh := range r.shards {
			sh.tickCh <- now
		}
		for _, sh := range r.shards {
			<-sh.doneCh
		}
		r.barrier(now)
	}
	for _, sh := range r.shards {
		close(sh.tickCh)
	}
	wg.Wait()

	r.last = r.stats(ticks, d)
	return r.last
}

// barrier runs between ticks, with every shard loop parked: merge event
// batches in shard order, place cross-shard migrations, then apply the
// ground-truth fault schedule for the next tick.
func (r *RootSupervisor) barrier(now simtime.Time) {
	for _, sh := range r.shards {
		if len(sh.batch) == 0 {
			continue
		}
		r.flush(sh.batch)
		// The next tick reuses the buffer, unless a burst (a failover
		// wave, or checkpoints falling due together) grew it past one
		// flush: kept, every shard would pin its high-water mark for
		// the rest of the run.
		if cap(sh.batch) <= fleetEventBatch {
			sh.batch = sh.batch[:0]
		} else {
			sh.batch = nil
		}
	}

	var reqs []migrateReq
	reqs = append(reqs, r.pending...)
	r.pending = nil
	for _, sh := range r.shards {
		for _, job := range sh.askMigrate {
			reqs = append(reqs, migrateReq{job: job, from: sh.id})
		}
		sh.askMigrate = nil
	}
	var rootBatch []Event
	for _, req := range reqs {
		rootBatch = append(rootBatch, r.place(req, now)...)
	}
	if len(rootBatch) > 0 {
		r.flush(rootBatch)
	}

	r.applyFaults(now)
}

// place admits one migrating job into the shard with the most
// unsuspected members, copying its newest checkpoint into the target
// shard's namespace and retiring the source-side chain under the source
// shard's own fence domain. Returns the root's orchestration events.
func (r *RootSupervisor) place(req migrateReq, now simtime.Time) []Event {
	job := req.job
	best, bestFree := -1, 0
	for _, sh := range r.shards {
		if free := sh.unsuspectedCount(); free > bestFree {
			best, bestFree = sh.id, free
		}
	}
	if best < 0 {
		r.rootCtr.Inc("fleet.unplaced", 1)
		r.pending = append(r.pending, req)
		return nil
	}
	tgt := r.shards[best]
	src := r.shards[req.from]
	cand := tgt.pickMember()
	epoch := tgt.fence.Epoch()
	if old := job.node; !r.f.alive[old] {
		// Cross-shard migration is this job's failover; record its
		// latency like a shard-local one.
		r.failoverHist.Observe(now.Sub(r.f.downAt[old]).Millis())
	}
	job.node, job.epoch, job.tgt = cand, epoch, tgt.writerTarget(epoch)

	var evs []Event
	evs = append(evs, Event{At: now, Kind: EvAdmit, Node: cand, Epoch: epoch})
	// Carry the newest checkpoint across the shard boundary: the root
	// (not the target shard) reads the source chain, and the source's
	// leftovers are retired through the SOURCE's fence domain — the
	// target never holds a handle into another shard's store.
	migrated := ""
	if job.last != "" {
		if data, err := src.store.ReadObject(job.last, nil); err == nil {
			job.seq++
			obj := tgt.objName(job.id, epoch, job.seq)
			if storage.Write(job.tgt, obj, data, storage.WriteOptions{Atomic: true}) == nil {
				migrated = obj
			}
		}
	}
	srcTgt := src.writerTarget(src.fence.Epoch())
	for _, o := range job.objs {
		if strings.HasPrefix(o, src.prefix) && srcTgt.Delete(o) == nil {
			evs = append(evs, Event{At: now, Kind: EvRetire, Node: cand, Epoch: epoch, Object: o})
		}
	}
	if migrated != "" {
		job.last, job.objs = migrated, []string{migrated}
		evs = append(evs, Event{At: now, Kind: EvRestore, Node: cand, Epoch: epoch, Object: migrated})
	} else {
		job.last, job.objs, job.seq = "", nil, 0
		evs = append(evs, Event{At: now, Kind: EvScratch, Node: cand, Epoch: epoch})
	}
	pos := sort.Search(len(tgt.jobs), func(i int) bool { return tgt.jobs[i].id >= job.id })
	tgt.jobs = append(tgt.jobs, nil)
	copy(tgt.jobs[pos+1:], tgt.jobs[pos:])
	tgt.jobs[pos] = job
	r.rootCtr.Inc("fleet.migrations", 1)
	return evs
}

// applyFaults applies every scheduled failure and due reboot at the
// barrier — the only place ground truth mutates, with all shard loops
// parked.
func (r *RootSupervisor) applyFaults(now simtime.Time) {
	f := r.f
	for len(f.faults) > 0 && f.faults[0].at <= now {
		ft := f.faults[0]
		f.faults = f.faults[1:]
		if !f.alive[ft.node] {
			continue
		}
		f.alive[ft.node] = false
		f.downAt[ft.node] = now
		f.perm[ft.node] = ft.perm
		if sh := r.shardOfNode(ft.node); sh != nil {
			sh.credited[ft.node-sh.base] = false
		}
		r.rootCtr.Inc("fleet.failures", 1)
		if !ft.perm {
			f.reboots = append(f.reboots, fleetReboot{at: now.Add(ft.repair), node: ft.node})
		}
	}
	kept := f.reboots[:0]
	for _, rb := range f.reboots {
		if rb.at <= now {
			f.alive[rb.node] = true
			r.rootCtr.Inc("fleet.reboots", 1)
		} else {
			kept = append(kept, rb)
		}
	}
	f.reboots = kept
}

// flush appends events to the merged log in bounded batches.
func (r *RootSupervisor) flush(evs []Event) {
	for len(evs) > 0 {
		n := min(len(evs), fleetEventBatch)
		r.Events = append(r.Events, evs[:n]...)
		evs = evs[n:]
		r.batches++
		if n > r.maxBatch {
			r.maxBatch = n
		}
		r.rootCtr.Inc("events.flushed", int64(n))
		r.rootCtr.Inc("events.batches", 1)
		if r.OnBatch != nil {
			// The log's own copy: the caller's buffer is reused.
			r.OnBatch(r.Events[len(r.Events)-n:])
		}
	}
}

// ReadObject resolves a shard-namespaced object name ("s<id>/...") to
// the owning shard's store — the audit read path for the scenario
// harness's durability checks.
func (r *RootSupervisor) ReadObject(name string) ([]byte, error) {
	rest, ok := strings.CutPrefix(name, "s")
	if !ok {
		return nil, fmt.Errorf("cluster: object %q outside any shard namespace", name)
	}
	slash := strings.IndexByte(rest, '/')
	if slash < 0 {
		return nil, fmt.Errorf("cluster: object %q outside any shard namespace", name)
	}
	id, err := strconv.Atoi(rest[:slash])
	if err != nil || id < 0 || id >= len(r.shards) {
		return nil, fmt.Errorf("cluster: object %q names unknown shard", name)
	}
	return r.shards[id].store.ReadObject(name, nil)
}

// stats assembles the run summary from merged counters and histograms.
func (r *RootSupervisor) stats(ticks int, d simtime.Duration) FleetStats {
	m := r.SC.Merged()
	ds := r.detectHist.Snapshot()
	fs := r.failoverHist.Snapshot()
	return FleetStats{
		Nodes:          r.cfg.Nodes,
		Shards:         r.cfg.Shards,
		Jobs:           r.cfg.Jobs,
		Ticks:          ticks,
		SimMillis:      d.Millis(),
		Events:         len(r.Events),
		Batches:        r.batches,
		MaxBatch:       r.maxBatch,
		Checkpoints:    m.Get("fleet.ckpt_acks"),
		Failovers:      m.Get("fleet.failovers"),
		Migrations:     m.Get("fleet.migrations"),
		Unplaced:       m.Get("fleet.unplaced"),
		Detections:     ds.N,
		DetectP50:      ds.P50,
		DetectP99:      ds.P99,
		FailoverN:      fs.N,
		FailoverP50:    fs.P50,
		FailoverP99:    fs.P99,
		FalsePositives: m.Get("det.false_positives"),
		SelfFences:     m.Get("fence.self_fence"),
		DoubleCommits:  m.Get("fence.double_commits"),
		Timers:         r.f.Timers(),
	}
}
