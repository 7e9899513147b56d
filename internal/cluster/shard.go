// Shard supervisor: one event loop, one fence domain, one detector, one
// RNG, one counter slot — everything a shard touches during a tick is
// shard-local, which is what makes the per-shard goroutines race-free
// without locks and the whole run deterministic despite real
// parallelism. Cross-shard effects (job migration when a shard has no
// unsuspected member left) are requests handed to the root at the tick
// barrier, never direct writes into another shard.

package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"

	"repro/internal/detector"
	"repro/internal/simtime"
	"repro/internal/storage"
	"repro/internal/trace"
)

// gcKeep is how many committed checkpoints a job keeps before the shard
// retires the oldest.
const gcKeep = 2

// fleetJob is one supervised job: its placement, the fence epoch its
// writer incarnation holds, and its live checkpoint chain.
type fleetJob struct {
	id    int
	node  int
	epoch uint64
	seq   int
	tgt   storage.Target
	last  string
	objs  []string
}

// ghostWriter is a superseded incarnation that does not know it was
// failed over — the node was falsely suspected, so the old process is
// still running and still trying to publish. Epoch fencing is what
// makes it harmless: its next publish must be rejected.
type ghostWriter struct {
	job   int
	node  int
	epoch uint64
	tgt   storage.Target
}

// inflightDigest is one digest on its way from the shard's aggregation
// point to the shard supervisor's detector.
type inflightDigest struct {
	at simtime.Time
	d  *detector.Digest
}

// shardSup is one shard supervisor. Fields are touched only by its own
// event loop during a tick, and only by the root at the barrier.
type shardSup struct {
	id   int
	root *RootSupervisor
	base int
	n    int

	prefix string // object-name namespace, "s<id>/"
	fence  *storage.FenceDomain
	store  *storage.Store
	det    detector.Detector
	ingest *detector.DigestIngest
	rng    *rand.Rand
	ctr    *trace.Counters
	timer  *fleetTimer

	seq       uint64
	tick      int
	inflight  []inflightDigest
	free      []*detector.Digest // delivered or lost digests, cleared for reuse
	suspected []bool
	nsusp     int // how many entries of suspected are set
	credited  []bool
	rr        int // round-robin placement cursor

	jobs   []*fleetJob // sorted by id
	ghosts []*ghostWriter
	// due is the cadence wheel over jobs: due[s] holds the jobs with
	// id % CkptEvery == s, in id order, so a tick visits only the jobs
	// whose checkpoint falls due in it. A change to jobs sets it to nil,
	// and the shard's next checkpoint rebuilds it.
	due [][]*fleetJob

	batch      []Event
	askMigrate []*fleetJob

	tickCh chan simtime.Time
	doneCh chan struct{}
}

func newShardSup(root *RootSupervisor, id, base, n int) *shardSup {
	ctr := root.SC.Shard(id)
	sh := &shardSup{
		id: id, root: root, base: base, n: n,
		prefix:    fmt.Sprintf("s%03d/", id),
		store:     storage.NewMemory(fmt.Sprintf("shard-%03d", id), nil),
		det:       detector.NewTimeout(root.cfg.DetectAfter),
		rng:       rand.New(rand.NewSource(root.cfg.Seed ^ int64(uint64(id+1)*0x9e3779b97f4a7c15))),
		ctr:       ctr,
		suspected: make([]bool, n),
		credited:  make([]bool, n),
		tickCh:    make(chan simtime.Time),
		doneCh:    make(chan struct{}),
	}
	sh.fence = storage.NewFenceDomain(fmt.Sprintf("shard-%03d", id), ctr)
	sh.ingest = detector.NewDigestIngest(sh.det, ctr)
	for i := 0; i < n; i++ {
		sh.ingest.Prime(base+i, 0)
	}
	// The digest tick is the shard's ONLY recurring timer: member
	// heartbeats are folded into the digest build rather than arming a
	// per-node timer each.
	sh.timer = root.f.registerTimer(fmt.Sprintf("shard-%03d digest", id), root.cfg.Tick)
	return sh
}

// loop is the shard's event loop goroutine: it processes one tick per
// barrier cycle and exits when the tick channel closes.
func (sh *shardSup) loop() {
	for now := range sh.tickCh {
		sh.runTick(now)
		sh.doneCh <- struct{}{}
	}
	close(sh.doneCh)
}

// member returns the global node id of member offset i.
func (sh *shardSup) member(i int) int { return sh.base + i }

// isSuspected reports the shard detector's verdict for a global node id
// owned by this shard.
func (sh *shardSup) isSuspected(node int) bool {
	off := node - sh.base
	return off >= 0 && off < sh.n && sh.suspected[off]
}

// unsuspectedCount is the shard's spare capacity signal for root
// placement decisions.
func (sh *shardSup) unsuspectedCount() int { return sh.n - sh.nsusp }

// writerTarget binds a writer handle for epoch; with fencing disabled
// it is the raw store — the broken build the double-commit invariant
// must catch.
func (sh *shardSup) writerTarget(epoch uint64) storage.Target {
	if sh.root.cfg.NoFencing {
		return sh.store
	}
	return storage.FencedAt(sh.store, sh.fence, epoch)
}

// objName names a checkpoint object inside this shard's namespace:
// "<prefix>j<job>/e<epoch>-<seq>", job and seq zero-padded to six
// digits (the layout of fmt's "%sj%06d/e%d-%06d").
func (sh *shardSup) objName(job int, epoch uint64, seq int) string {
	var buf [64]byte
	b := append(buf[:0], sh.prefix...)
	b = append(b, 'j')
	b = appendPad6(b, job)
	b = append(b, "/e"...)
	b = strconv.AppendUint(b, epoch, 10)
	b = append(b, '-')
	b = appendPad6(b, seq)
	return string(b)
}

// appendPad6 appends v in decimal, zero-padded to six characters with
// any minus sign counted among them, as fmt's %06d does.
func appendPad6(b []byte, v int) []byte {
	var buf [24]byte
	d := strconv.AppendInt(buf[:0], int64(v), 10)
	pad := 6 - len(d)
	if d[0] == '-' {
		b = append(b, '-')
		d = d[1:]
	}
	for ; pad > 0; pad-- {
		b = append(b, '0')
	}
	return append(b, d...)
}

// indexDue builds the cadence wheel from jobs.
func (sh *shardSup) indexDue() {
	every := sh.root.cfg.CkptEvery
	sh.due = make([][]*fleetJob, every)
	for _, job := range sh.jobs {
		s := job.id % every
		sh.due[s] = append(sh.due[s], job)
	}
}

// releaseBatch readies the batch for the next tick once the root has
// flushed it. The buffer is reused unless a burst (a failover wave, or
// checkpoints falling due together) grew it past one flush: kept, every
// shard would pin its high-water mark for the rest of the run.
func (sh *shardSup) releaseBatch() {
	if cap(sh.batch) <= fleetEventBatch {
		sh.batch = sh.batch[:0]
	} else {
		sh.batch = nil
	}
}

// emit appends one orchestration event to the tick's outgoing batch.
func (sh *shardSup) emit(now simtime.Time, kind EventKind, node int, epoch uint64, object string) {
	sh.batch = append(sh.batch, Event{At: now, Kind: kind, Node: node, Epoch: epoch, Object: object})
}

// runTick is one shard tick: deliver due digests, re-evaluate
// suspicion, fail over jobs on suspected members, publish due
// checkpoints, let ghost writers run into the fence, and emit this
// tick's digest.
func (sh *shardSup) runTick(now simtime.Time) {
	sh.tick++
	sh.timer.next = sh.timer.next.Add(sh.timer.period)
	sh.deliverDigests(now)
	sh.evaluate(now)
	sh.failover(now)
	sh.checkpoint(now)
	sh.pumpGhosts(now)
	sh.emitDigest(now)
}

// deliverDigests feeds every digest whose delivery time has arrived to
// the shard detector, in order, and recycles each one (Observe does
// not retain it).
func (sh *shardSup) deliverDigests(now simtime.Time) {
	kept := sh.inflight[:0]
	for _, in := range sh.inflight {
		if in.at <= now {
			sh.ingest.Observe(in.d, now)
			sh.putDigest(in.d)
		} else {
			kept = append(kept, in)
		}
	}
	sh.inflight = kept
}

// evaluate re-judges every member and accounts transitions against
// ground truth (accounting only — the verdict itself is digest-driven).
func (sh *shardSup) evaluate(now simtime.Time) {
	f := sh.root.f
	for i := 0; i < sh.n; i++ {
		node := sh.member(i)
		s := sh.det.Suspected(node, now)
		if s == sh.suspected[i] {
			continue
		}
		sh.suspected[i] = s
		if s {
			sh.nsusp++
			sh.ctr.Inc("det.suspicions", 1)
			if !f.alive[node] && !sh.credited[i] {
				sh.credited[i] = true
				sh.ctr.Inc("det.detections", 1)
				sh.root.detectHist.Observe(now.Sub(f.downAt[node]).Millis())
			} else if f.alive[node] {
				sh.ctr.Inc("det.false_positives", 1)
			}
		} else {
			sh.nsusp--
			sh.ctr.Inc("det.recoveries", 1)
		}
	}
}

// failover moves jobs off suspected members. The first failover of a
// tick advances the shard's fence epoch — fencing every superseded
// writer — and the loop then re-admits the shard's surviving jobs at
// the new epoch (shard-generation fencing: safe because one event loop
// owns the whole shard, so re-admission is atomic with the advance).
// Jobs with no unsuspected member left are handed to the root for
// cross-shard migration. Every job runs on a member of its own shard,
// so a shard with no suspected member has nothing to fail over.
func (sh *shardSup) failover(now simtime.Time) {
	if sh.nsusp == 0 {
		return
	}
	f := sh.root.f
	advanced := false
	var epoch uint64
	kept := sh.jobs[:0]
	for _, job := range sh.jobs {
		if !sh.isSuspected(job.node) {
			kept = append(kept, job)
			continue
		}
		if !advanced {
			advanced = true
			epoch = sh.fence.Advance()
		}
		old, oldEpoch := job.node, job.epoch
		sh.ctr.Inc("fleet.failovers", 1)
		sh.emit(now, EvFailover, old, epoch, "")
		if f.alive[old] {
			// False suspicion: the old incarnation is still running and
			// will keep publishing until the fence kills it.
			sh.ghosts = append(sh.ghosts, &ghostWriter{
				job: job.id, node: old, epoch: oldEpoch, tgt: sh.writerTarget(oldEpoch),
			})
		} else {
			sh.root.failoverHist.Observe(now.Sub(f.downAt[old]).Millis())
		}
		cand := sh.pickMember()
		if cand < 0 {
			job.epoch = epoch
			sh.askMigrate = append(sh.askMigrate, job)
			continue
		}
		job.node, job.epoch, job.tgt = cand, epoch, sh.writerTarget(epoch)
		sh.emit(now, EvAdmit, cand, epoch, "")
		if job.last != "" {
			// The " lazy" marker rides in the event's Object field (the
			// restored leaf's name stays the prefix); FleetViolations keys
			// only off EvStaleCommit/EvAck/EvRetire objects, so the suffix
			// is observable without disturbing any invariant.
			if sh.root.cfg.LazyRestore {
				sh.ctr.Inc("fleet.lazy_restores", 1)
				sh.emit(now, EvRestore, cand, epoch, job.last+" lazy")
			} else {
				sh.emit(now, EvRestore, cand, epoch, job.last)
			}
		} else {
			sh.emit(now, EvScratch, cand, epoch, "")
		}
		kept = append(kept, job)
	}
	if len(kept) < len(sh.jobs) {
		sh.due = nil
	}
	sh.jobs = kept
	if advanced {
		// Re-admit every surviving writer at the new epoch so the shard
		// advance fences only the superseded incarnations.
		for _, job := range sh.jobs {
			if job.epoch != epoch {
				job.epoch, job.tgt = epoch, sh.writerTarget(epoch)
				sh.ctr.Inc("fence.readmits", 1)
			}
		}
	}
}

// pickMember round-robins over unsuspected members; -1 when none.
func (sh *shardSup) pickMember() int {
	for k := 0; k < sh.n; k++ {
		i := (sh.rr + k) % sh.n
		if !sh.suspected[i] {
			sh.rr = (i + 1) % sh.n
			return sh.member(i)
		}
	}
	return -1
}

// checkpoint publishes due jobs' checkpoints through their fenced
// writer handles and garbage-collects superseded chain entries. A job
// is due when (tick + id) % CkptEvery == 0: its cadence slot is
// (CkptEvery - tick % CkptEvery) % CkptEvery.
func (sh *shardSup) checkpoint(now simtime.Time) {
	f := sh.root.f
	if sh.due == nil {
		sh.indexDue()
	}
	every := sh.root.cfg.CkptEvery
	due := sh.due[(every-sh.tick%every)%every]
	// Each due job emits at most an ack and a retire: size the batch for
	// the whole burst once rather than regrowing it along the way.
	sh.batch = slices.Grow(sh.batch, 2*len(due))
	acks := 0
	for _, job := range due {
		// Node-local code runs only on live machines; a dead node's
		// writer is silent until failover re-places the job.
		if !f.alive[job.node] || sh.isSuspected(job.node) {
			continue
		}
		job.seq++
		obj := sh.objName(job.id, job.epoch, job.seq)
		if err := storage.Write(job.tgt, obj, ckptPayload(job.id, job.seq), storage.WriteOptions{Atomic: true}); err != nil {
			if errors.Is(err, storage.ErrFenced) {
				// Structurally impossible shard-locally (re-admission is
				// atomic with the epoch advance); counted so a regression
				// shows up in the digest.
				sh.ctr.Inc("fence.unexpected", 1)
			} else {
				sh.ctr.Inc("ckpt.errors", 1)
			}
			continue
		}
		acks++
		job.last = obj
		job.objs = append(job.objs, obj)
		sh.emit(now, EvAck, job.node, job.epoch, obj)
		for len(job.objs) > gcKeep {
			sh.retire(now, job, job.objs[0])
			// Shift in place: slicing off the head would shrink the
			// capacity and make every second append reallocate.
			job.objs = job.objs[:copy(job.objs, job.objs[1:])]
		}
	}
	if acks > 0 {
		sh.ctr.Inc("fleet.ckpt_acks", int64(acks))
	}
}

// retire garbage-collects one superseded checkpoint through the job's
// fenced handle. The prefix guard is the shard-isolation invariant:
// shard-local GC must never touch another shard's chains, whatever name
// it is handed.
func (sh *shardSup) retire(now simtime.Time, job *fleetJob, obj string) {
	if !strings.HasPrefix(obj, sh.prefix) {
		sh.ctr.Inc("fence.gc_foreign", 1)
		return
	}
	if err := job.tgt.Delete(obj); err != nil {
		sh.ctr.Inc("fleet.gc_errors", 1)
		return
	}
	sh.emit(now, EvRetire, job.node, job.epoch, obj)
}

// pumpGhosts lets every superseded incarnation attempt its next publish.
// With fencing on, the epoch check rejects it and the incarnation
// self-fences; with fencing off the publish LANDS — the split-brain
// double commit the scenario invariants must catch.
func (sh *shardSup) pumpGhosts(now simtime.Time) {
	f := sh.root.f
	kept := sh.ghosts[:0]
	for _, g := range sh.ghosts {
		if !f.alive[g.node] {
			// The falsely-suspected machine has since really died; the
			// ghost dies with it.
			continue
		}
		obj := sh.objName(g.job, g.epoch, 1<<20+sh.tick)
		err := storage.Write(g.tgt, obj, ckptPayload(g.job, -1), storage.WriteOptions{Atomic: true})
		switch {
		case err == nil:
			sh.ctr.Inc("fence.double_commits", 1)
			sh.emit(now, EvStaleCommit, g.node, g.epoch, obj)
		case errors.Is(err, storage.ErrFenced):
			sh.ctr.Inc("fence.self_fence", 1)
			sh.emit(now, EvSelfFence, g.node, g.epoch, "")
		default:
			kept = append(kept, g) // transient storage trouble: try again
		}
	}
	sh.ghosts = kept
}

// emitDigest builds this tick's heartbeat digest — one message for the
// whole shard — and sends it toward the shard detector through the
// digest fault model (loss, duplication, jitter). Each in-flight entry
// owns its digest: a duplicated send schedules a copy, and a lost
// digest goes straight back to the free list.
func (sh *shardSup) emitDigest(now simtime.Time) {
	if sh.n == 0 {
		return
	}
	cfg := sh.root.cfg
	f := sh.root.f
	d := sh.takeDigest()
	for i := 0; i < sh.n; i++ {
		if !f.alive[sh.member(i)] {
			continue // a dead machine contributes no heartbeat
		}
		if cfg.HBLoss > 0 && sh.rng.Float64() < cfg.HBLoss {
			sh.ctr.Inc("net.hb_lost", 1)
			continue
		}
		d.MarkPresent(i, now)
	}
	sh.seq++
	d.Seq, d.SentAt = sh.seq, now
	if cfg.DigestLoss > 0 && sh.rng.Float64() < cfg.DigestLoss {
		sh.ctr.Inc("net.digest_lost", 1)
		sh.putDigest(d)
		return
	}
	sh.schedule(d, now)
	if cfg.DigestDup > 0 && sh.rng.Float64() < cfg.DigestDup {
		sh.ctr.Inc("net.digest_dup_sent", 1)
		dup := sh.takeDigest()
		dup.Seq, dup.SentAt = d.Seq, d.SentAt
		copy(dup.Present, d.Present)
		copy(dup.LastSent, d.LastSent)
		sh.schedule(dup, now)
	}
}

// takeDigest returns an empty digest for this shard, reusing one from
// the free list when there is one.
func (sh *shardSup) takeDigest() *detector.Digest {
	if k := len(sh.free) - 1; k >= 0 {
		d := sh.free[k]
		sh.free = sh.free[:k]
		return d
	}
	return detector.NewDigest(sh.id, sh.base, sh.n)
}

// putDigest clears a digest nothing refers to any more and returns it
// to the free list. Only the member bitmap and send times need
// clearing: emitDigest sets the sequence number and send time afresh.
func (sh *shardSup) putDigest(d *detector.Digest) {
	clear(d.Present)
	clear(d.LastSent)
	sh.free = append(sh.free, d)
}

// schedule enqueues one digest delivery with transfer delay and jitter,
// keeping the in-flight queue ordered by delivery time (late arrivals
// from a jittery send land behind newer fast ones — exactly the
// out-of-order case DigestIngest counts).
func (sh *shardSup) schedule(d *detector.Digest, now simtime.Time) {
	cfg := sh.root.cfg
	delay := cfg.Tick / 4
	if cfg.DigestJitter > 0 {
		delay += simtime.Duration(sh.rng.Int63n(int64(cfg.DigestJitter)))
	}
	in := inflightDigest{at: now.Add(delay), d: d}
	pos := len(sh.inflight)
	for pos > 0 && sh.inflight[pos-1].at > in.at {
		pos--
	}
	sh.inflight = append(sh.inflight, inflightDigest{})
	copy(sh.inflight[pos+1:], sh.inflight[pos:])
	sh.inflight[pos] = in
}

// ckptPayloadLen is the size of a synthetic fleet checkpoint.
const ckptPayloadLen = 96

// ckptRamp holds byte(k) at index k, so every payload is one window of it.
var ckptRamp = func() (r [256 + ckptPayloadLen]byte) {
	for i := range r {
		r[i] = byte(i)
	}
	return r
}()

// ckptPayload is a small deterministic checkpoint body: byte i is
// byte(job + seq + i).
func ckptPayload(job, seq int) []byte {
	start := int(byte(job + seq))
	return append([]byte(nil), ckptRamp[start:start+ckptPayloadLen]...)
}
