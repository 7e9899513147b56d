// Heartbeat digests: the fleet-scale aggregation path. With per-node
// heartbeats the observer receives N messages per period and the
// control plane arms N emission schedules — at 10,000 nodes that is the
// dominant message and timer load in the whole system. A Digest
// collapses one shard's liveness into a single message per tick: a
// bitmap of members that heartbeated since the last digest plus their
// newest send times for accounting. DigestIngest folds arriving digests
// into any Detector (timeout, phi-accrual) so the suspicion machinery
// is unchanged; ShardMonitor is the cluster-facing monitor that runs
// member heartbeats to a per-shard aggregator node and digests to the
// observer over the real (lossy, delayable, partitionable) network,
// with observer-driven aggregator failover so a dead aggregator does
// not blind its shard forever.

package detector

import (
	"fmt"
	"math/bits"

	"repro/internal/simtime"
	"repro/internal/trace"
)

// Digest is one shard's aggregated heartbeat: "these members of shard
// Shard were alive since the previous digest". Member identity is
// positional — member i is node Base+i — so the payload is a bitmap
// plus send times, not a list of per-node messages.
type Digest struct {
	// Shard identifies the emitting shard; Agg is the aggregator node
	// that built the digest and Gen the assignment generation it holds
	// (zero in contexts without aggregator failover).
	Shard int
	Agg   int
	Gen   uint64
	// Seq increases per digest per aggregator; SentAt is the emission
	// time. (Agg, Seq) lets the ingest side drop exact duplicates —
	// something raw heartbeat streams cannot do soundly.
	Seq    uint64
	SentAt simtime.Time
	// Members are nodes Base..Base+N-1.
	Base int
	N    int
	// Present bit i set means member Base+i heartbeated this tick;
	// LastSent[i] is that heartbeat's send time (accounting ground for
	// false-negative classification; zero when absent).
	Present  []uint64
	LastSent []simtime.Time
}

// NewDigest returns an empty digest for a shard of n members starting
// at node base.
func NewDigest(shard, base, n int) *Digest {
	return &Digest{
		Shard:    shard,
		Base:     base,
		N:        n,
		Present:  make([]uint64, (n+63)/64),
		LastSent: make([]simtime.Time, n),
	}
}

// MarkPresent records that member i (node Base+i) heartbeated, with the
// heartbeat's send time.
func (d *Digest) MarkPresent(i int, sentAt simtime.Time) {
	d.Present[i/64] |= 1 << uint(i%64)
	if sentAt > d.LastSent[i] {
		d.LastSent[i] = sentAt
	}
}

// IsPresent reports whether member i heartbeated in this digest.
func (d *Digest) IsPresent(i int) bool {
	if i < 0 || i >= d.N {
		return false
	}
	return d.Present[i/64]&(1<<uint(i%64)) != 0
}

// Count returns how many members are present.
func (d *Digest) Count() int {
	n := 0
	for i := 0; i < d.N; i++ {
		if d.IsPresent(i) {
			n++
		}
	}
	return n
}

// Bytes models the wire size: a fixed header, the bitmap, and one send
// time per present member.
func (d *Digest) Bytes() int {
	return 48 + 8*len(d.Present) + 8*d.Count()
}

// digestKey identifies one digest emission for deduplication.
type digestKey struct {
	shard, agg int
	seq        uint64
}

// DigestIngest folds digest arrivals into a Detector. Exact duplicates
// (same shard, aggregator, and sequence number — network duplication or
// a replayed message) are dropped and counted det.digest_dup: a
// duplicate carries no new liveness information and must not extend a
// node's observed liveness past its real last heartbeat. Out-of-order
// digests ARE applied (their member heartbeats really happened) and
// counted det.digest_late; the per-node detectors already guard against
// observation time going backwards. Members first seen inside a digest
// (a node that joined mid-run) are primed on sight.
type DigestIngest struct {
	D        Detector
	Counters *trace.Counters

	lastSeq map[int]uint64 // per shard: highest applied seq
	applied map[digestKey]bool
	primed  table[struct{}]
	inserts int
}

// NewDigestIngest wraps d with digest ingestion. ctr may be nil.
func NewDigestIngest(d Detector, ctr *trace.Counters) *DigestIngest {
	if ctr == nil {
		ctr = trace.NewCounters()
	}
	return &DigestIngest{
		D: d, Counters: ctr,
		lastSeq: make(map[int]uint64),
		applied: make(map[digestKey]bool),
	}
}

// Prime establishes t as the observation baseline for node (used at
// construction, before any digest has arrived).
func (di *DigestIngest) Prime(node int, t simtime.Time) {
	di.primed.at(node).ok = true
	di.D.Prime(node, t)
}

// Observe folds one digest arrival at time now into the detector.
// Returns false when the digest was dropped as a duplicate. Observe
// does not retain d: the caller may clear and reuse it once Observe
// returns.
func (di *DigestIngest) Observe(d *Digest, now simtime.Time) bool {
	di.Counters.Inc("det.digests", 1)
	k := digestKey{d.Shard, d.Agg, d.Seq}
	if di.applied[k] {
		di.Counters.Inc("det.digest_dup", 1)
		return false
	}
	di.applied[k] = true
	di.inserts++
	if d.Seq < di.lastSeq[d.Shard] {
		di.Counters.Inc("det.digest_late", 1)
	} else {
		di.lastSeq[d.Shard] = d.Seq
	}
	// Walk the set bits only, and count locally: one counter bump per
	// digest rather than one per member (a zero count adds no key).
	var hb, joins int64
	for w, word := range d.Present {
		for ; word != 0; word &= word - 1 {
			i := w*64 + bits.TrailingZeros64(word)
			if i >= d.N {
				break
			}
			node := d.Base + i
			if p := di.primed.at(node); !p.ok {
				p.ok = true
				joins++
				di.D.Prime(node, now)
			}
			di.D.Observe(node, now)
			hb++
		}
	}
	if hb > 0 {
		di.Counters.Inc("det.digest_hb", hb)
	}
	if joins > 0 {
		di.Counters.Inc("det.digest_joins", joins)
	}
	di.prune()
	return true
}

// prune bounds the dedup memory: every 1024 inserts, forget digests far
// behind their shard's high-water sequence (a duplicate that stale
// would at worst be re-applied, which the detectors' time guards make
// harmless).
func (di *DigestIngest) prune() {
	if di.inserts < 1024 {
		return
	}
	di.inserts = 0
	for k := range di.applied {
		if hw := di.lastSeq[k.shard]; hw > 512 && k.seq < hw-512 {
			delete(di.applied, k)
		}
	}
}

// AssignAgg is the observer's control message appointing Agg as shard
// Shard's aggregator. Gen totally orders assignments per shard so a
// stale appointment arriving late (or a rebooted ex-aggregator) cannot
// win over a newer one.
type AssignAgg struct {
	Shard int
	Agg   int
	Gen   uint64
}

// assignResend is how many consecutive periods the observer
// rebroadcasts a new aggregator assignment to the shard's members: the
// assignment travels the same faulty network as everything else, so one
// send is not enough, and forever is the per-node message load digests
// exist to avoid.
const assignResend = 8

// ShardConfig tunes a ShardMonitor.
type ShardConfig struct {
	// Shards is the number of heartbeat-aggregation shards the workers
	// are split into (contiguous ranges).
	Shards int
	// Period is both the member heartbeat period and the aggregator's
	// digest tick (default 500µs).
	Period simtime.Duration
	// Observer is the control-plane node the digests feed. It must be
	// the highest-numbered node: digests address members positionally
	// as Base+i, so the worker range has to be contiguous.
	Observer int
}

// ShardMonitor is the digest-based counterpart of Monitor: members
// heartbeat to their shard's aggregator node, the aggregator emits one
// digest per tick to the observer, and the observer's detector judges
// every member from the digest stream. The observer also supervises the
// aggregators themselves: when a shard's aggregator is suspected, the
// lowest unsuspected member is appointed in its place (AssignAgg,
// rebroadcast a bounded number of periods), so an aggregator death
// costs one detection delay rather than blinding the shard forever.
// The verdicts and their accounting are Monitor's own (both embed one
// core), so experiment tables compare the two paths directly.
type ShardMonitor struct {
	verdicts
	Cfg ShardConfig

	ingest *DigestIngest

	// Shard geometry: shard s covers nodes [base[s], base[s]+cnt[s]).
	base []int
	cnt  []int

	// Observer-side aggregator supervision.
	want    []int
	gen     []uint64
	resend  []int
	obsNext simtime.Time

	// Member-local state (indexed by node). The aim/acting state is
	// node-local knowledge installed by AssignAgg deliveries; it
	// survives reboots the same way Monitor's emission schedule does.
	aim      []int
	aimGen   []uint64
	acting   []bool
	seq      []uint64
	nextEmit []simtime.Time
	aggSeq   []uint64
	aggNext  []simtime.Time
	pending  []*Digest
}

// NewShardMonitor builds a sharded monitor over t, splits the workers
// (every node but the observer) into cfg.Shards contiguous shards,
// installs handlers on the aggregators and the observer, and primes the
// detector. The observer must be the highest-numbered node.
func NewShardMonitor(t Transport, d Detector, cfg ShardConfig, ctr *trace.Counters) *ShardMonitor {
	if cfg.Period <= 0 {
		cfg.Period = 500 * simtime.Microsecond
	}
	n := t.NumNodes()
	if cfg.Observer != n-1 {
		panic(fmt.Sprintf("detector: ShardMonitor needs the observer as the last node (got observer %d of %d nodes)", cfg.Observer, n))
	}
	workers := n - 1
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.Shards > workers {
		cfg.Shards = workers
	}
	m := &ShardMonitor{
		verdicts: newVerdicts(t, d, cfg.Observer, ctr),
		Cfg:      cfg,
		base:     make([]int, cfg.Shards),
		cnt:      make([]int, cfg.Shards),
		want:     make([]int, cfg.Shards),
		gen:      make([]uint64, cfg.Shards),
		resend:   make([]int, cfg.Shards),
		aim:      make([]int, n),
		aimGen:   make([]uint64, n),
		acting:   make([]bool, n),
		seq:      make([]uint64, n),
		nextEmit: make([]simtime.Time, n),
		aggSeq:   make([]uint64, n),
		aggNext:  make([]simtime.Time, n),
		pending:  make([]*Digest, n),
	}
	m.ingest = NewDigestIngest(d, m.Counters)
	chunk := (workers + cfg.Shards - 1) / cfg.Shards
	for s := 0; s < cfg.Shards; s++ {
		lo := s * chunk
		hi := lo + chunk
		if hi > workers {
			hi = workers
		}
		if lo > hi {
			lo = hi
		}
		m.base[s], m.cnt[s] = lo, hi-lo
	}
	now := t.Now()
	for s := 0; s < cfg.Shards; s++ {
		if m.cnt[s] == 0 {
			continue
		}
		// The initial assignment is boot configuration: every member
		// knows its shard's first node is the aggregator, the same way
		// Monitor's members know the observer's address.
		m.want[s], m.gen[s] = m.base[s], 1
		for i := 0; i < m.cnt[s]; i++ {
			node := m.base[s] + i
			m.aim[node], m.aimGen[node] = m.base[s], 1
			m.nextEmit[node] = now.Add(cfg.Period)
			m.ingest.Prime(node, now)
		}
		agg := m.base[s]
		m.acting[agg] = true
		m.aggNext[agg] = now.Add(cfg.Period)
	}
	m.obsNext = now.Add(cfg.Period)

	for node := 0; node < workers; node++ {
		node := node
		prev := t.Handler(node)
		t.OnDeliver(node, func(payload any) {
			switch msg := payload.(type) {
			case Heartbeat:
				m.foldHeartbeat(node, msg)
			case AssignAgg:
				m.onAssign(node, msg)
			default:
				if prev != nil {
					prev(payload)
				}
			}
		})
	}
	prev := t.Handler(cfg.Observer)
	t.OnDeliver(cfg.Observer, func(payload any) {
		if dg, ok := payload.(*Digest); ok {
			m.onDigest(dg)
			return
		}
		if prev != nil {
			prev(payload)
		}
	})
	t.OnNodeDown(m.noteDown)
	t.OnStep(m.pump)
	return m
}

// shardOf returns the shard covering node, or -1.
func (m *ShardMonitor) shardOf(node int) int {
	for s := 0; s < m.Cfg.Shards; s++ {
		if node >= m.base[s] && node < m.base[s]+m.cnt[s] {
			return s
		}
	}
	return -1
}

// foldHeartbeat runs on a member node receiving a heartbeat: if it
// believes itself the shard's aggregator it folds the heartbeat into
// the digest under construction, otherwise the sender aimed at a
// superseded aggregator and the heartbeat is dropped (counted — the
// resent assignment will re-aim the sender).
func (m *ShardMonitor) foldHeartbeat(node int, hb Heartbeat) {
	if !m.acting[node] {
		m.Counters.Inc("det.hb_misaimed", 1)
		return
	}
	m.Counters.Inc("det.heartbeats", 1)
	s := m.shardOf(node)
	if s < 0 {
		return
	}
	off := hb.Node - m.base[s]
	if off < 0 || off >= m.cnt[s] {
		m.Counters.Inc("det.hb_foreign", 1)
		return // a member of another shard aimed here: stale assignment
	}
	if m.pending[node] == nil {
		m.pending[node] = NewDigest(s, m.base[s], m.cnt[s])
	}
	m.pending[node].MarkPresent(off, hb.SentAt)
}

// onAssign runs on a member node receiving an aggregator appointment.
func (m *ShardMonitor) onAssign(node int, a AssignAgg) {
	if a.Gen < m.aimGen[node] {
		return // stale assignment lost the race
	}
	if a.Gen == m.aimGen[node] && a.Agg == m.aim[node] {
		return // rebroadcast of what this member already knows
	}
	m.aimGen[node] = a.Gen
	m.aim[node] = a.Agg
	wasActing := m.acting[node]
	m.acting[node] = a.Agg == node
	if m.acting[node] && !wasActing {
		m.pending[node] = nil
		m.aggNext[node] = m.T.Now().Add(m.Cfg.Period)
	}
	if wasActing && !m.acting[node] {
		m.pending[node] = nil
	}
}

// onDigest runs on the observer: dedup + detector feed via the ingest,
// then the ground-truth accounting Monitor does per heartbeat, once per
// present member.
func (m *ShardMonitor) onDigest(d *Digest) {
	now := m.T.Now()
	if d.Gen < m.gen[d.Shard] {
		// A superseded aggregator is still emitting (it rebooted, or the
		// reassignment never reached it). Its liveness info is real —
		// ingest it — but nudge the assignment out again so it stands
		// down.
		m.Counters.Inc("det.digest_stale_agg", 1)
		if m.resend[d.Shard] == 0 {
			m.resend[d.Shard] = 1
		}
	}
	if !m.ingest.Observe(d, now) {
		return // exact duplicate
	}
	for i := 0; i < d.N; i++ {
		if d.IsPresent(i) {
			m.heard(d.Base+i, d.LastSent[i])
		}
	}
}

// pump runs once per cluster step: member heartbeat emission,
// aggregator digest ticks, the observer's aggregator supervision, and
// suspicion evaluation.
func (m *ShardMonitor) pump() {
	now := m.T.Now()
	workers := m.T.NumNodes() - 1

	// Member heartbeat emission — node-local code, runs only on live
	// machines. A member whose aim is itself is the aggregator: its
	// "heartbeat" folds straight into the pending digest.
	for node := 0; node < workers; node++ {
		for m.T.NodeAlive(node) && now >= m.nextEmit[node] {
			m.seq[node]++
			hb := Heartbeat{Node: node, Seq: m.seq[node], SentAt: now}
			if m.aim[node] == node {
				m.foldHeartbeat(node, hb)
			} else {
				_ = m.T.Send(node, m.aim[node], hb, hbBytes)
			}
			m.nextEmit[node] = m.nextEmit[node].Add(m.Cfg.Period)
		}
		if !m.T.NodeAlive(node) && now >= m.nextEmit[node] {
			m.nextEmit[node] = now.Add(m.Cfg.Period)
		}
	}

	// Aggregator digest ticks.
	for node := 0; node < workers; node++ {
		if !m.acting[node] {
			continue
		}
		for m.T.NodeAlive(node) && now >= m.aggNext[node] {
			s := m.shardOf(node)
			d := m.pending[node]
			if d == nil {
				d = NewDigest(s, m.base[s], m.cnt[s])
			}
			m.pending[node] = nil
			m.aggSeq[node]++
			d.Agg, d.Gen, d.Seq, d.SentAt = node, m.aimGen[node], m.aggSeq[node], now
			// The aggregator is alive to run this code: it is its own
			// heartbeat witness.
			d.MarkPresent(node-m.base[s], now)
			_ = m.T.Send(node, m.Cfg.Observer, d, d.Bytes())
			m.Counters.Inc("det.digest_sent", 1)
			m.aggNext[node] = m.aggNext[node].Add(m.Cfg.Period)
		}
		if !m.T.NodeAlive(node) && now >= m.aggNext[node] {
			// The machine is down: whatever it had aggregated is lost
			// with it, and the schedule moves on for its reboot.
			m.pending[node] = nil
			m.aggNext[node] = now.Add(m.Cfg.Period)
		}
	}

	// Observer: supervise the aggregators and rebroadcast fresh
	// assignments for a bounded number of periods.
	for now >= m.obsNext {
		m.observerTick()
		m.obsNext = m.obsNext.Add(m.Cfg.Period)
	}

	// Suspicion evaluation over the workers (the observer is the
	// control plane and is never judged).
	m.judge(workers, now)
}

// observerTick reassigns suspected aggregators and drains the resend
// budget.
func (m *ShardMonitor) observerTick() {
	for s := 0; s < m.Cfg.Shards; s++ {
		if m.cnt[s] == 0 {
			continue
		}
		if m.suspected[m.want[s]] {
			cand := -1
			for i := 0; i < m.cnt[s]; i++ {
				if node := m.base[s] + i; !m.suspected[node] {
					cand = node
					break
				}
			}
			switch {
			case cand >= 0 && cand != m.want[s]:
				m.gen[s]++
				m.want[s] = cand
				m.resend[s] = assignResend
				m.Counters.Inc("det.agg_failover", 1)
			case cand < 0 && m.resend[s] == 0:
				// The whole shard is dark — a dead aggregator silences every
				// member, so by the time the observer acts there may be no
				// unsuspected candidate left. Probe the members in turn,
				// giving each appointee a resend budget's worth of periods to
				// start digesting; the first live one rehabilitates the
				// shard.
				next := m.want[s] + 1
				if next >= m.base[s]+m.cnt[s] {
					next = m.base[s]
				}
				m.gen[s]++
				m.want[s] = next
				m.resend[s] = assignResend
				m.Counters.Inc("det.agg_probe", 1)
			}
		}
		if m.resend[s] > 0 {
			m.resend[s]--
			for i := 0; i < m.cnt[s]; i++ {
				node := m.base[s] + i
				_ = m.T.Send(m.Cfg.Observer, node, AssignAgg{Shard: s, Agg: m.want[s], Gen: m.gen[s]}, 24)
			}
			m.Counters.Inc("det.assign_bcast", 1)
		}
	}
}

// Aggregator returns shard s's currently appointed aggregator node (the
// observer's view), for tests and telemetry.
func (m *ShardMonitor) Aggregator(s int) int { return m.want[s] }
