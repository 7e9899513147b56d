package detector

import (
	"testing"

	"repro/internal/simtime"
	"repro/internal/trace"
)

// fakeNet is a minimal Transport for driving ShardMonitor without the
// full cluster: messages are delivered after a fixed delay, nodes can be
// killed and revived, and per-message drop/duplicate hooks model the
// faulty network.
type fakeNet struct {
	now      simtime.Time
	n        int
	alive    []bool
	handlers []func(any)
	steps    []func()
	downFns  []func(int)
	delay    simtime.Duration
	queue    []fakeMsg
	drop     func(from, to int, payload any) bool
	dup      func(payload any) bool
}

type fakeMsg struct {
	at      simtime.Time
	to      int
	payload any
}

func newFakeNet(n int, delay simtime.Duration) *fakeNet {
	f := &fakeNet{n: n, alive: make([]bool, n), handlers: make([]func(any), n), delay: delay}
	for i := range f.alive {
		f.alive[i] = true
	}
	return f
}

func (f *fakeNet) Now() simtime.Time    { return f.now }
func (f *fakeNet) NumNodes() int        { return f.n }
func (f *fakeNet) NodeAlive(i int) bool { return f.alive[i] }
func (f *fakeNet) OnStep(fn func())     { f.steps = append(f.steps, fn) }
func (f *fakeNet) OnDeliver(i int, fn func(payload any)) {
	f.handlers[i] = fn
}
func (f *fakeNet) Handler(i int) func(payload any) { return f.handlers[i] }
func (f *fakeNet) OnNodeDown(fn func(node int))    { f.downFns = append(f.downFns, fn) }

func (f *fakeNet) Send(from, to int, payload any, size int) error {
	if f.drop != nil && f.drop(from, to, payload) {
		return nil
	}
	f.queue = append(f.queue, fakeMsg{at: f.now.Add(f.delay), to: to, payload: payload})
	if f.dup != nil && f.dup(payload) {
		f.queue = append(f.queue, fakeMsg{at: f.now.Add(f.delay), to: to, payload: payload})
	}
	return nil
}

func (f *fakeNet) kill(node int) {
	f.alive[node] = false
	for _, fn := range f.downFns {
		fn(node)
	}
}

func (f *fakeNet) revive(node int) { f.alive[node] = true }

// step advances time in fixed increments, delivering due messages to
// live recipients and running the pump, up to deadline.
func (f *fakeNet) step(until simtime.Time, inc simtime.Duration) {
	for f.now < until {
		f.now = f.now.Add(inc)
		kept := f.queue[:0]
		for _, m := range f.queue {
			if m.at > f.now {
				kept = append(kept, m)
				continue
			}
			if f.alive[m.to] && f.handlers[m.to] != nil {
				f.handlers[m.to](m.payload)
			}
		}
		f.queue = kept
		for _, fn := range f.steps {
			fn()
		}
	}
}

func shardMonCfg(shards int, n int) ShardConfig {
	return ShardConfig{Shards: shards, Period: msDur(1), Observer: n - 1}
}

// A non-aggregator worker failure is detected through the digest path
// with no collateral suspicion.
func TestShardMonitorDetectsWorkerFailure(t *testing.T) {
	net := newFakeNet(9, 200*simtime.Microsecond) // 8 workers in 2 shards + observer
	ctr := trace.NewCounters()
	m := NewShardMonitor(net, NewTimeout(msDur(4)), shardMonCfg(2, 9), ctr)

	// Kill off the emission grid so the outage classifier sees the last
	// heartbeat strictly before the down time.
	net.step(ms(10).Add(50*simtime.Microsecond), 100*simtime.Microsecond)
	net.kill(3)
	net.step(ms(30), 100*simtime.Microsecond)

	if !m.Suspected(3) {
		t.Fatal("dead worker never suspected")
	}
	for i := 0; i < 8; i++ {
		if i != 3 && m.Suspected(i) {
			t.Fatalf("live worker %d suspected", i)
		}
	}
	if ctr.Get("det.detections") != 1 {
		t.Fatalf("det.detections = %d, want 1\n%s", ctr.Get("det.detections"), ctr)
	}
	if ctr.Get("det.false_positives") != 0 {
		t.Fatalf("false positives: %d\n%s", ctr.Get("det.false_positives"), ctr)
	}
	if m.Latency.N() != 1 {
		t.Fatalf("latency samples = %d, want 1", m.Latency.N())
	}
}

// Killing a shard's aggregator silences the whole shard; the observer
// must appoint a replacement and the surviving members must be
// rehabilitated once digests resume — an aggregator death costs a
// detection delay, not permanent blindness.
func TestShardMonitorAggregatorFailover(t *testing.T) {
	net := newFakeNet(9, 200*simtime.Microsecond)
	ctr := trace.NewCounters()
	m := NewShardMonitor(net, NewTimeout(msDur(4)), shardMonCfg(2, 9), ctr)

	if m.Aggregator(0) != 0 {
		t.Fatalf("boot aggregator of shard 0 is %d, want 0", m.Aggregator(0))
	}
	net.step(ms(10).Add(50*simtime.Microsecond), 100*simtime.Microsecond)
	net.kill(0)
	net.step(ms(60), 100*simtime.Microsecond)

	if agg := m.Aggregator(0); agg == 0 {
		t.Fatal("observer never reassigned shard 0's aggregator")
	} else if net.alive[agg] != true {
		t.Fatalf("appointed aggregator %d is dead", agg)
	}
	if !m.Suspected(0) {
		t.Fatal("dead ex-aggregator not suspected")
	}
	for i := 1; i < 4; i++ {
		if m.Suspected(i) {
			t.Fatalf("shard 0 member %d still suspected after aggregator failover", i)
		}
	}
	// Shard 1 must have been untouched throughout.
	for i := 4; i < 8; i++ {
		if m.Suspected(i) {
			t.Fatalf("shard 1 member %d suspected by shard 0's outage", i)
		}
	}
	if ctr.Get("det.agg_failover")+ctr.Get("det.agg_probe") == 0 {
		t.Fatalf("no aggregator reassignment counted\n%s", ctr)
	}
	if ctr.Get("det.recoveries") == 0 {
		t.Fatal("silenced members never rehabilitated")
	}
}

// Network-duplicated digests are deduplicated by (shard, agg, seq) and
// cause no false suspicion; a duplicate must not refresh liveness either
// (covered at the ingest layer, exercised here end to end).
func TestShardMonitorSurvivesDuplicatedDigests(t *testing.T) {
	net := newFakeNet(9, 200*simtime.Microsecond)
	net.dup = func(p any) bool { _, ok := p.(*Digest); return ok }
	ctr := trace.NewCounters()
	m := NewShardMonitor(net, NewTimeout(msDur(4)), shardMonCfg(2, 9), ctr)

	net.step(ms(30), 100*simtime.Microsecond)
	for i := 0; i < 8; i++ {
		if m.Suspected(i) {
			t.Fatalf("worker %d suspected under digest duplication", i)
		}
	}
	if ctr.Get("det.digest_dup") == 0 {
		t.Fatal("duplicates were not exercised")
	}
	if ctr.Get("det.false_positives") != 0 {
		t.Fatalf("false positives under duplication\n%s", ctr)
	}
}

// Digest loss delays detection but the monitor keeps its accounting
// straight: a rebooted node is rehabilitated, and a failure that comes
// and goes inside the silence is counted missed, exactly like Monitor.
func TestShardMonitorTransientFailureAccounting(t *testing.T) {
	net := newFakeNet(5, 200*simtime.Microsecond) // one shard of 4 + observer
	ctr := trace.NewCounters()
	m := NewShardMonitor(net, NewTimeout(msDur(4)), shardMonCfg(1, 5), ctr)

	net.step(ms(10).Add(50*simtime.Microsecond), 100*simtime.Microsecond)
	net.kill(2)
	net.step(ms(20), 100*simtime.Microsecond)
	if !m.Suspected(2) {
		t.Fatal("transient failure undetected")
	}
	net.revive(2)
	net.step(ms(40), 100*simtime.Microsecond)
	if m.Suspected(2) {
		t.Fatal("rebooted node never rehabilitated")
	}
	if ctr.Get("det.detections") != 1 || ctr.Get("det.recoveries") == 0 {
		t.Fatalf("accounting off:\n%s", ctr)
	}
}

// Heartbeats aimed at a superseded aggregator are dropped and counted,
// not folded into a stale digest.
func TestShardMonitorMisaimedHeartbeats(t *testing.T) {
	net := newFakeNet(5, 200*simtime.Microsecond)
	ctr := trace.NewCounters()
	m := NewShardMonitor(net, NewTimeout(msDur(4)), shardMonCfg(1, 5), ctr)

	net.step(ms(10), 100*simtime.Microsecond)
	// Deliver a heartbeat to node 1, which is not the aggregator.
	m.foldHeartbeat(1, Heartbeat{Node: 2, Seq: 1, SentAt: net.now})
	if ctr.Get("det.hb_misaimed") != 1 {
		t.Fatalf("det.hb_misaimed = %d, want 1", ctr.Get("det.hb_misaimed"))
	}
}
