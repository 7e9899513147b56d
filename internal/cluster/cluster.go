// Package cluster provides the fault-tolerance substrate of §1: a
// simulated cluster of machines with fail-stop failures [33], node-local
// and remote stable storage, checkpoint-interval policy (Young/Daly), an
// autonomic manager that adapts the interval to the observed failure rate,
// process migration, gang scheduling via safe preemption, and both a
// detailed mode (full simulated kernels per node) and an analytic mode for
// long-MTBF parameter sweeps.
package cluster

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/costmodel"
	"repro/internal/simos/kernel"
	"repro/internal/simos/proc"
	"repro/internal/simtime"
	"repro/internal/storage"
	"repro/internal/trace"
)

// Node is one machine: a kernel plus its local disk. The disk's contents
// survive reboots (the power-outage case the paper concedes to local
// storage) but are unreachable while the node is down and after the node
// is replaced.
type Node struct {
	Name string
	K    *kernel.Kernel
	Disk *storage.Store
	RAM  *storage.Store

	alive    bool
	failures int
	lastKind FailureKind // kind of the most recent failure
	cl       *Cluster
	idx      int
}

// Alive reports whether the node is up.
func (n *Node) Alive() bool { return n.alive }

// Failures returns how many times the node has failed.
func (n *Node) Failures() int { return n.failures }

// Remote returns a client for the cluster's checkpoint server.
func (n *Node) Remote() *storage.Store {
	return storage.NewRemote(n.Name+"→"+"server", n.cl.Server)
}

// message is one in-flight cross-node payload.
type message struct {
	to      int
	payload any
	at      simtime.Time
}

// Cluster is a set of nodes co-simulated under a barrier-synchronized
// clock, plus a shared remote checkpoint server.
type Cluster struct {
	CM       *costmodel.Model
	Registry *kernel.Registry
	Server   *storage.Server
	// Counters accumulates cluster-wide counters (net.*, and — shared by
	// default with the orchestration layer — ckpt.*, det.*, fence.*).
	Counters *trace.Counters

	nodes []*Node
	now   simtime.Time
	rng   *rand.Rand

	mail     []message
	handlers []func(payload any)

	injector  *Injector
	net       *NetPolicy
	stepHooks []func()
	downHooks []func(node int)
	upHooks   []func(node int)

	faults       *storage.FaultPolicy
	serverRepair simtime.Duration
	serverBackAt simtime.Time
}

// stepQuantum is the barrier step: Step advances every node by this much.
const stepQuantum = 100 * simtime.Microsecond

// Config tunes a cluster.
type Config struct {
	Nodes int
	Seed  int64
	// KernelCfg is applied per node (hostname is overridden).
	KernelCfg kernel.Config
}

// New builds a cluster whose nodes all know the programs in reg.
func New(cfg Config, cm *costmodel.Model, reg *kernel.Registry) *Cluster {
	c := &Cluster{
		CM:       cm,
		Registry: reg,
		Server:   storage.NewServer("ckpt-server", cm),
		Counters: trace.NewCounters(),
		rng:      rand.New(rand.NewSource(cfg.Seed + 1)),
	}
	for i := 0; i < cfg.Nodes; i++ {
		c.addNode(cfg, i)
	}
	return c
}

func (c *Cluster) addNode(cfg Config, i int) {
	name := fmt.Sprintf("node%d", i)
	n := &Node{Name: name, alive: true, cl: c, idx: i}
	n.Disk = storage.NewLocal(name+"-disk", c.CM, n.Alive)
	n.RAM = storage.NewMemory(name+"-ram", n.Alive)
	kc := cfg.KernelCfg
	kc.Hostname = name
	kc.Seed = cfg.Seed + int64(i)*7919
	n.K = kernel.New(kc, c.CM, c.Registry)
	c.nodes = append(c.nodes, n)
	c.handlers = append(c.handlers, nil)
}

// Nodes returns the node list.
func (c *Cluster) Nodes() []*Node { return c.nodes }

// Node returns node i.
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// Now returns the cluster barrier time.
func (c *Cluster) Now() simtime.Time { return c.now }

// Rand returns the cluster's deterministic RNG.
func (c *Cluster) Rand() *rand.Rand { return c.rng }

// SetInjector installs a failure injector.
func (c *Cluster) SetInjector(inj *Injector) { c.injector = inj }

// StorageFaultConfig tunes per-operation storage fault injection for a
// cluster (see storage.FaultPolicy for the field semantics).
type StorageFaultConfig struct {
	WriteFault   float64
	OutageFrac   float64
	SilentTear   float64
	PublishFault float64
	// ServerRepair is how long a mid-transfer server outage lasts before
	// the cluster brings the server back (default 5ms of simulated time).
	ServerRepair simtime.Duration
}

// EnableStorageFaults installs one fault policy, seeded from the cluster
// RNG for determinism, on the checkpoint server and every node's local
// disk. Server outages injected mid-transfer heal automatically after
// cfg.ServerRepair of cluster time. The returned policy exposes the
// injection counts.
func (c *Cluster) EnableStorageFaults(cfg StorageFaultConfig) *storage.FaultPolicy {
	if cfg.ServerRepair <= 0 {
		cfg.ServerRepair = 5 * simtime.Millisecond
	}
	fp := &storage.FaultPolicy{
		WriteFault:   cfg.WriteFault,
		OutageFrac:   cfg.OutageFrac,
		SilentTear:   cfg.SilentTear,
		PublishFault: cfg.PublishFault,
		Rng:          rand.New(rand.NewSource(c.rng.Int63())),
	}
	c.serverRepair = cfg.ServerRepair
	fp.OnOutage = func() { c.serverBackAt = c.now.Add(c.serverRepair) }
	c.Server.SetFaults(fp)
	for _, n := range c.nodes {
		n.Disk.SetFaults(fp)
	}
	c.faults = fp
	return fp
}

// OnDeliver registers the cross-node message handler for node i
// (package mpi installs its mailbox here). It replaces any previous
// handler; use Handler first to chain.
func (c *Cluster) OnDeliver(i int, fn func(payload any)) { c.handlers[i] = fn }

// Handler returns node i's registered deliver handler (nil when none),
// so a new handler can filter its own payloads and forward the rest.
func (c *Cluster) Handler(i int) func(payload any) { return c.handlers[i] }

// OnStep registers a hook run at the end of every cluster Step, after
// mail delivery and failure injection. Node-local daemons (heartbeat
// emitters, checkpoint agents) pump from here.
func (c *Cluster) OnStep(fn func()) { c.stepHooks = append(c.stepHooks, fn) }

// OnNodeDown registers a hook invoked whenever a node fails. Detector
// bookkeeping uses it as ground truth for latency and false-positive
// accounting; decision paths must not.
func (c *Cluster) OnNodeDown(fn func(node int)) { c.downHooks = append(c.downHooks, fn) }

// OnNodeUp registers a hook invoked whenever a node reboots.
func (c *Cluster) OnNodeUp(fn func(node int)) { c.upHooks = append(c.upHooks, fn) }

// NumNodes returns the node count.
func (c *Cluster) NumNodes() int { return len(c.nodes) }

// NodeAlive reports node i's liveness (detector.Transport).
func (c *Cluster) NodeAlive(i int) bool { return c.nodes[i].alive }

// DropMail discards queued in-flight messages matching the predicate —
// the network teardown a parallel job performs before restarting from a
// checkpoint (stale packets from the failed execution must not reach the
// restored one).
func (c *Cluster) DropMail(match func(payload any) bool) int {
	var rest []message
	dropped := 0
	for _, m := range c.mail {
		if match(m.payload) {
			dropped++
			continue
		}
		rest = append(rest, m)
	}
	c.mail = rest
	return dropped
}

// ErrNodeDown reports that a Send's destination was already down when
// the message left the source: the message was never sent, as opposed to
// sent and lost in flight (which Send deliberately does not report —
// the network gives no receipt).
var ErrNodeDown = errors.New("cluster: destination node is down")

// Send queues a payload of the given size from node `from` to node `to`;
// it is delivered at the first barrier after the modeled transfer time
// (plus injected jitter). A destination known to be down at send time
// returns ErrNodeDown; a message lost, partitioned away, or addressed to
// a handler-less node is counted (net.*) but reported to nobody.
func (c *Cluster) Send(from, to int, payload any, size int) error {
	if !c.nodes[from].alive {
		return fmt.Errorf("cluster: %s is down", c.nodes[from].Name)
	}
	c.Counters.Inc("net.sent", 1)
	if !c.nodes[to].alive {
		c.Counters.Inc("net.dropped", 1)
		return fmt.Errorf("%w: %s", ErrNodeDown, c.nodes[to].Name)
	}
	deliver, extra, dup := c.net.outcome(from, to)
	if !deliver {
		return nil
	}
	at := c.now.Add(c.CM.NetTransfer(size) + extra)
	c.mail = append(c.mail, message{to: to, payload: payload, at: at})
	if dup {
		c.mail = append(c.mail, message{to: to, payload: payload,
			at: c.now.Add(c.CM.NetTransfer(size) + c.net.jitter())})
	}
	return nil
}

// Step advances the cluster by one quantum: each live node's kernel runs
// to the barrier, then due messages deliver and due failures fire.
func (c *Cluster) Step() {
	c.now = c.now.Add(stepQuantum)
	for _, n := range c.nodes {
		if n.alive && n.K.Now() < c.now {
			n.K.RunFor(c.now.Sub(n.K.Now()))
		}
	}
	// Deliver due mail (to live nodes; mail to dead or handler-less
	// nodes is dropped and counted, fail-stop semantics).
	var rest []message
	for _, m := range c.mail {
		switch {
		case m.at > c.now:
			rest = append(rest, m)
		case c.nodes[m.to].alive && c.handlers[m.to] != nil:
			c.Counters.Inc("net.delivered", 1)
			c.handlers[m.to](m.payload)
		default:
			c.Counters.Inc("net.dropped", 1)
		}
	}
	c.mail = rest
	if c.injector != nil {
		c.injector.apply(c)
	}
	if c.serverBackAt != 0 && c.now >= c.serverBackAt {
		c.Server.Recover()
		c.serverBackAt = 0
	}
	for _, fn := range c.stepHooks {
		fn()
	}
}

// RunFor advances the cluster by d.
func (c *Cluster) RunFor(d simtime.Duration) {
	deadline := c.now.Add(d)
	for c.now < deadline {
		c.Step()
	}
}

// RunUntil advances the cluster until cond returns true or the budget
// elapses; reports whether cond was met.
func (c *Cluster) RunUntil(cond func() bool, budget simtime.Duration) bool {
	deadline := c.now.Add(budget)
	for c.now < deadline {
		if cond() {
			return true
		}
		c.Step()
	}
	return cond()
}

// Fail takes node i down with Transient semantics (fail-stop: it halts
// instantly and all its processes die). Its local disk becomes
// unreachable but keeps its contents for a later Reboot.
func (c *Cluster) Fail(i int) { c.FailKind(i, Transient) }

// FailKind takes node i down recording the §4.1 distinction: a Transient
// failure (power outage) reboots the same machine, disk intact; a
// Permanent one is a machine replacement, so the node that later comes
// back does so with a blank local disk.
func (c *Cluster) FailKind(i int, kind FailureKind) {
	n := c.nodes[i]
	if !n.alive {
		return
	}
	n.alive = false
	n.failures++
	n.lastKind = kind
	n.K.SetHalted(true)
	for _, p := range n.K.Procs.All() {
		if p.State != proc.StateZombie && p.State != proc.StateDead {
			n.K.Exit(p, 137)
		}
	}
	for _, fn := range c.downHooks {
		fn(i)
	}
}

// Reboot brings node i back with a fresh kernel (empty process table).
// After a Transient failure the local disk's contents are intact; after
// a Permanent one the replacement machine's disk starts empty. RAM
// contents are lost either way.
func (c *Cluster) Reboot(i int) {
	n := c.nodes[i]
	if n.alive {
		return
	}
	kc := kernel.DefaultConfig(n.Name)
	kc.Seed = int64(i)*7919 + int64(n.failures)
	k := kernel.New(kc, c.CM, c.Registry)
	// The new kernel's clock starts at the cluster barrier.
	k.Eng.Clock.AdvanceTo(c.now)
	n.K = k
	n.RAM.Wipe()
	if n.lastKind == Permanent {
		n.Disk.Wipe()
	}
	n.alive = true
	for _, fn := range c.upHooks {
		fn(i)
	}
}

// Reachable reports whether a message from node `from` would currently
// reach node `to`: the destination must be up and no active partition
// may separate the two. This is the network model's answer, used to
// decide the fate of modeled RPCs.
func (c *Cluster) Reachable(from, to int) bool {
	return c.nodes[to].alive && !c.net.Partitioned(from, to)
}

// ProcStatus is the reply of a successful status RPC.
type ProcStatus struct {
	State       proc.State
	ExitCode    int
	Fingerprint uint64
	Found       bool // false: the node answered but has no such process
}

// ProbeProcess models a status RPC from node `from` to the job runner on
// node `on`: when the network would swallow the request (dead peer or
// active partition) it returns ok=false and the caller learns nothing —
// a dead node and a slow link are indistinguishable, which is exactly
// why callers must leave the dead/alive verdict to a failure detector
// rather than to this probe.
func (c *Cluster) ProbeProcess(from, on int, pid proc.PID) (st ProcStatus, ok bool) {
	if !c.Reachable(from, on) {
		return ProcStatus{}, false
	}
	p, err := c.nodes[on].K.Procs.Lookup(pid)
	if err != nil {
		return ProcStatus{Found: false}, true
	}
	return ProcStatus{State: p.State, ExitCode: p.ExitCode, Fingerprint: p.Regs().G[3], Found: true}, true
}

// FindSpare returns the first live node other than `except`, or -1.
func (c *Cluster) FindSpare(except int) int {
	for i, n := range c.nodes {
		if i != except && n.alive {
			return i
		}
	}
	return -1
}
