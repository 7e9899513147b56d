package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/simtime"
)

var fleet10k = &workload{
	name: "fleet-10k",
	why: "the sharded control plane at 10k nodes: the digest path, the shard loops and the root " +
		"barrier do the work; checkpoints are synthetic, so the codec and simulated OS do none",
	op:         "shard tick (host clock) and job failover (simulated clock)",
	parallel:   0.5,
	simRounds:  6,
	tinyRounds: 2,
	setup:      setupFleet,
}

// fleetRun drives one RootSupervisor run per round, each with its own
// seeded fault schedule.
type fleetRun struct {
	cfg    config
	fc     cluster.FleetConfig
	dur    simtime.Duration
	faults int
}

// fleetFault is one scheduled ground-truth failure.
type fleetFault struct {
	at   simtime.Time
	node int
}

func setupFleet(cfg config) (roundFunc, error) {
	r := &fleetRun{cfg: cfg, dur: simtime.Second, faults: 150, fc: cluster.FleetConfig{
		Nodes: 10000, Shards: 64, Jobs: 10000, CkptEvery: 64,
		Tick: simtime.Millisecond, DigestJitter: 500 * simtime.Microsecond,
	}}
	if cfg.tiny {
		r.dur, r.faults = 300*simtime.Millisecond, 20
		r.fc.Nodes, r.fc.Shards, r.fc.Jobs, r.fc.CkptEvery = 512, 8, 512, 16
	}
	// Set-up is building a root supervisor and scheduling its faults.
	// Each round builds its own within its measured time, so the one
	// built here only times that step.
	if _, _, err := r.build(0); err != nil {
		return nil, err
	}
	return r.round, nil
}

// build creates round i's root supervisor and schedules its faults:
// uniform over the nodes and over the run except its first and last
// 100ms, half of them permanent, the rest repaired after 40ms.
func (r *fleetRun) build(i int) (*cluster.RootSupervisor, []fleetFault, error) {
	fc := r.fc
	fc.Seed = int64(derive(r.cfg.seed, uint64(2*i+2)))
	rs, err := cluster.NewRootSupervisor(fc)
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(int64(derive(r.cfg.seed, uint64(2*i+3)))))
	window := int((r.dur - 200*simtime.Millisecond) / simtime.Millisecond)
	faults := make([]fleetFault, r.faults)
	for f := range faults {
		at := simtime.Duration(100+rng.Intn(window)) * simtime.Millisecond
		node := rng.Intn(fc.Nodes)
		perm := rng.Intn(2) == 0
		repair := 40 * simtime.Millisecond
		if perm {
			repair = 0
		}
		if err := rs.FailAt(at, node, perm, repair); err != nil {
			return nil, nil, err
		}
		faults[f] = fleetFault{at: simtime.Time(at), node: node}
	}
	return rs, faults, nil
}

func (r *fleetRun) round(i int) (float64, error) {
	rec, tr := r.cfg.rec, r.cfg.tr
	rs, faults, err := r.build(i)
	if err != nil {
		return 0, err
	}
	// Every flush at a barrier carries its tick's time; the host time
	// between the first flushes of successive ticks is one tick's cost.
	var lastTick simtime.Time
	var last time.Time
	rs.OnBatch = func(b []cluster.Event) {
		at := b[0].At
		if at == lastTick {
			return
		}
		now := time.Now()
		perTick := ms(now.Sub(last)) / (float64(at-lastTick) / float64(r.fc.Tick))
		rec.host(perTick)
		rec.add("tick_host_us", 1000*perTick)
		last, lastTick = now, at
	}
	tr.begin("fleet.run")
	last = time.Now()
	start := last
	st := rs.Run(r.dur)
	wall := time.Since(start)
	tr.end()

	rec.attempted++
	if r.cfg.keepEvents {
		rec.events = append(rec.events, cluster.FormatEvents(rs.Events))
	}
	if !rec.verify(func() error {
		v := chaos.FleetViolations(&chaos.FleetAudit{Events: rs.Events, Counters: rs.Counters(), ReadObject: rs.ReadObject})
		if len(v) > 0 {
			return fmt.Errorf("%d invariant violations, first: %v", len(v), v[0])
		}
		return nil
	}) {
		rec.failed++
	}
	var sim float64
	rec.offClock(func() { sim = r.analyze(rs.Events, faults) })
	rec.add("fleet.events", float64(st.Events))
	rec.add("fleet.batches", float64(st.Batches))
	rec.add("fleet.checkpoints", float64(st.Checkpoints))
	rec.add("fleet.migrations", float64(st.Migrations))
	rec.add("fleet.false_positives", float64(st.FalsePositives))
	rec.add("fleet.run_host_s", wall.Seconds())
	return sim, nil
}

// analyze derives the simulated samples from the merged event log. A
// job failover's cost is the time from the job's last acked checkpoint
// to its restore: the work it lost, detection included. Detection is
// measured from the scheduled fault to the failover of that node.
func (r *fleetRun) analyze(events []cluster.Event, faults []fleetFault) float64 {
	rec := r.cfg.rec
	byNode := make(map[int][]simtime.Time)
	for _, f := range faults {
		byNode[f.node] = append(byNode[f.node], f.at)
	}
	for _, ts := range byNode {
		sort.Slice(ts, func(a, b int) bool { return ts[a] < ts[b] })
	}
	credited := make(map[fleetFault]bool)
	lastAck := make(map[int]simtime.Time)
	total := 0.0
	for _, ev := range events {
		switch ev.Kind {
		case cluster.EvAck:
			lastAck[jobOf(ev.Object)] = ev.At
		case cluster.EvRestore:
			if at, ok := lastAck[jobOf(ev.Object)]; ok {
				cost := ev.At.Sub(at).Millis()
				rec.sim(cost)
				rec.add("work_lost_sim_ms", cost)
				total += cost
			}
		case cluster.EvScratch:
			rec.add("scratch_restarts", 1)
		case cluster.EvRetire:
			rec.add("retired", 1)
		case cluster.EvFailover:
			rec.add("failovers", 1)
			ts := byNode[ev.Node]
			k := sort.Search(len(ts), func(j int) bool { return ts[j] > ev.At })
			if k == 0 {
				rec.add("false_failovers", 1)
				continue
			}
			f := fleetFault{at: ts[k-1], node: ev.Node}
			if !credited[f] {
				credited[f] = true
				rec.add("detect_sim_ms", ev.At.Sub(f.at).Millis())
			}
		}
	}
	return total
}

// jobOf returns the job id in a fleet checkpoint name
// ("s<shard>/j<job>/e<epoch>-<seq>"), or -1.
func jobOf(object string) int {
	_, rest, ok := strings.Cut(object, "/j")
	if !ok {
		return -1
	}
	id, _, _ := strings.Cut(rest, "/")
	n, err := strconv.Atoi(id)
	if err != nil {
		return -1
	}
	return n
}
