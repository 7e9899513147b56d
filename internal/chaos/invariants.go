package chaos

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/storage"
)

// Violation is one invariant breach observed in a run.
type Violation struct {
	// Invariant names the checker that fired (stable identifiers: the
	// sweep tables and shrinker key on them).
	Invariant string `json:"invariant"`
	Detail    string `json:"detail"`
}

func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

// Audit is the end-of-run evidence handed to each checker's Finish: the
// harness MAY read simulator ground truth here (it is the test oracle,
// not the decision path under test).
type Audit struct {
	Spec *Spec
	Sup  *cluster.Supervisor
	C    *cluster.Cluster
	// Want is the reference fingerprint from an undisturbed run of the
	// same workload.
	Want uint64
	// ReadObject reads an object from the checkpoint server.
	ReadObject func(name string) ([]byte, error)
	// Target is a read-side handle on the checkpoint server for checkers
	// that exercise the real restore entry points (LoadChain) instead of
	// reading objects one by one.
	Target storage.Target
	// Aborted is the supervisor's terminal error, if it gave up.
	Aborted error
}

// Checker observes orchestration events during a run and audits the end
// state. Implementations must be deterministic.
type Checker interface {
	// Name is the stable invariant identifier.
	Name() string
	// Event is called for every orchestration event as it happens.
	Event(ev cluster.Event)
	// Finish audits the end state and returns any violations.
	Finish(a *Audit) []Violation
}

// DefaultCheckers returns the full invariant catalog, fresh state each
// call (checkers accumulate per-run observations).
func DefaultCheckers() []Checker {
	return []Checker{
		&doubleCommitChecker{},
		&ackedDurabilityChecker{},
		&restorableChecker{},
		&digestChecker{},
		&oracleChecker{},
		&livenessChecker{},
		&replDurabilityChecker{},
		replConvergedChecker{},
		&workLostChecker{},
	}
}

// --- no double commit past a fence epoch ---

// doubleCommitChecker fires when a stale-epoch incarnation's publish
// lands. With fencing enabled this is structurally impossible; with
// fencing disabled (the broken-build contrast) this is the checker that
// must catch it.
type doubleCommitChecker struct {
	stale []cluster.Event
}

func (c *doubleCommitChecker) Name() string { return "double-commit" }

func (c *doubleCommitChecker) Event(ev cluster.Event) {
	if ev.Kind == cluster.EvStaleCommit {
		c.stale = append(c.stale, ev)
	}
}

func (c *doubleCommitChecker) Finish(a *Audit) []Violation {
	n := a.C.Counters.Get("fence.double_commits")
	if len(c.stale) == 0 && n == 0 {
		return nil
	}
	first := ""
	if len(c.stale) > 0 {
		first = " first: " + c.stale[0].String()
	}
	return []Violation{{Invariant: c.Name(), Detail: fmt.Sprintf(
		"%d stale-epoch publishes landed (fence.double_commits=%d)%s", len(c.stale), n, first)}}
}

// --- no acknowledged checkpoint lost after publish ---

// ackedDurabilityChecker records every checkpoint the orchestration
// layer acknowledged (EvAck = published atomically and the supervisor's
// recovery pointer updated) and verifies at the end that each name still
// holds a decodable image on the server. Atomic commit makes replacement
// and rebase-driven garbage collection (EvRetire) the only legal
// mutations — a torn, truncated, or vanished object under an acked,
// unretired name is a violation. With delta chains the durability unit
// widens from the object to its ancestry: the final acked leaf must walk
// parent links to an intact full image without meeting a retired or
// unreadable ancestor, or restore would silently lose a mid-chain delta.
// The ckpt.torn / ckpt.lost counters catch the same breaches when
// recovery trips over them mid-run.
type ackedDurabilityChecker struct {
	acked   []string
	seen    map[string]bool
	retired map[string]bool
	lastAck string
}

func (c *ackedDurabilityChecker) Name() string { return "acked-durability" }

func (c *ackedDurabilityChecker) Event(ev cluster.Event) {
	switch ev.Kind {
	case cluster.EvAck:
		if c.seen == nil {
			c.seen = make(map[string]bool)
		}
		c.lastAck = ev.Object
		if !c.seen[ev.Object] {
			c.seen[ev.Object] = true
			c.acked = append(c.acked, ev.Object)
		}
	case cluster.EvRetire:
		if c.retired == nil {
			c.retired = make(map[string]bool)
		}
		c.retired[ev.Object] = true
	}
}

func (c *ackedDurabilityChecker) Finish(a *Audit) []Violation {
	var out []Violation
	if torn := a.C.Counters.Get("ckpt.torn"); torn > 0 {
		out = append(out, Violation{c.Name(), fmt.Sprintf("recovery read %d torn committed image(s)", torn)})
	}
	if lost := a.C.Counters.Get("ckpt.lost"); lost > 0 {
		out = append(out, Violation{c.Name(), fmt.Sprintf("%d committed image(s) vanished", lost)})
	}
	// On replicated seeds, per-object durability narrows to the live
	// chain: a superseded incarnation's replicas legally die with their
	// nodes once the recovery pointer has moved past them — unretired
	// only because the run was cut before GC caught up. The live chain
	// (which restore actually needs) keeps the full obligation, walked
	// below and by the chain-restorable and repl-durability checkers.
	var live map[string]bool
	if a.Spec.Replication != "" {
		live = make(map[string]bool)
		for _, o := range a.Sup.ChainObjects() {
			live[o] = true
		}
	}
	for _, name := range c.acked {
		if c.retired[name] {
			continue // legally garbage-collected after a rebase
		}
		if live != nil && !live[name] {
			continue
		}
		data, err := a.ReadObject(name)
		if err != nil {
			out = append(out, Violation{c.Name(), fmt.Sprintf("acked %s unreadable: %v", name, err)})
			continue
		}
		if _, err := checkpoint.Decode(data); err != nil {
			out = append(out, Violation{c.Name(), fmt.Sprintf("acked %s corrupt: %v", name, err)})
		}
	}
	return append(out, c.chainViolations(a)...)
}

// chainViolations walks the final acked leaf's ancestry on the server:
// every hop must be readable, decodable, unretired, and the walk must
// end at a full image. This is the invariant GC and the chained Write together
// promise — a restore from the recovery pointer can always replay an
// intact chain.
func (c *ackedDurabilityChecker) chainViolations(a *Audit) []Violation {
	name := c.lastAck
	if name == "" {
		return nil
	}
	for hops := 0; ; hops++ {
		if hops > 4096 {
			return []Violation{{c.Name(), fmt.Sprintf("chain from %s did not terminate in a full image", c.lastAck)}}
		}
		if c.retired[name] {
			return []Violation{{c.Name(), fmt.Sprintf("live-chain ancestor %s was garbage-collected", name)}}
		}
		data, err := a.ReadObject(name)
		if err != nil {
			return []Violation{{c.Name(), fmt.Sprintf("live-chain ancestor %s unreadable: %v", name, err)}}
		}
		img, err := checkpoint.Decode(data)
		if err != nil {
			return []Violation{{c.Name(), fmt.Sprintf("live-chain ancestor %s corrupt: %v", name, err)}}
		}
		if img.Mode == checkpoint.ModeFull {
			return nil
		}
		if img.Parent == "" {
			return []Violation{{c.Name(), fmt.Sprintf("incremental image %s has no parent", name)}}
		}
		name = img.Parent
	}
}

// --- the recovery pointer always loads a bounded, intact chain ---

// restorableChecker exercises the real restore entry point against the
// final recovery pointer: checkpoint.LoadChain from the last acked leaf
// must succeed — walking parent links, verifying the chain, bounded
// against cycles — exactly as a failover at the instant the run ended
// would. This subsumes per-object durability with the property restore
// actually needs, and it is the invariant compaction could most easily
// break: a fold that deleted a delta before its replacement was durable,
// or published a folded image that fails VerifyChain against a child,
// surfaces here and nowhere else. When compaction is enabled and every
// fold succeeded, the loaded chain must also respect the CompactAfter
// bound — the whole point of paying for server-side folds.
type restorableChecker struct {
	lastAck string
}

func (c *restorableChecker) Name() string { return "chain-restorable" }

func (c *restorableChecker) Event(ev cluster.Event) {
	if ev.Kind == cluster.EvAck {
		c.lastAck = ev.Object
	}
}

func (c *restorableChecker) Finish(a *Audit) []Violation {
	if c.lastAck == "" || a.Target == nil {
		return nil
	}
	chain, err := checkpoint.LoadChain(a.Target, nil, c.lastAck)
	if err != nil {
		return []Violation{{c.Name(), fmt.Sprintf("acked leaf %s does not load a restorable chain: %v", c.lastAck, err)}}
	}
	if k := a.Spec.CompactAfter; k > 0 && a.C.Counters.Get("compact.failed") == 0 {
		if deltas := len(chain) - 1; deltas > k {
			return []Violation{{c.Name(), fmt.Sprintf(
				"chain from %s replays %d deltas despite CompactAfter=%d and no failed folds", c.lastAck, deltas, k)}}
		}
	}
	return nil
}

// --- restored state digest matches the reference ---

// digestChecker compares the completed job's result fingerprint against
// an undisturbed single-node run of the same workload: every restore
// along the way must have reconstructed the exact pre-failure process
// state for the digests to agree.
type digestChecker struct{}

func (digestChecker) Name() string           { return "state-digest" }
func (digestChecker) Event(ev cluster.Event) {}
func (c digestChecker) Finish(a *Audit) []Violation {
	if !a.Sup.Completed {
		return nil // liveness is a separate invariant
	}
	if a.Sup.Fingerprint != a.Want {
		return []Violation{{c.Name(), fmt.Sprintf(
			"fingerprint %#x != reference %#x after %d restart(s)", a.Sup.Fingerprint, a.Want, a.Sup.Restarts)}}
	}
	return nil
}

// --- no oracle reads on the decision path ---

// oracleChecker asserts the autonomic supervisor consulted nothing a
// real distributed system could not observe.
type oracleChecker struct{}

func (oracleChecker) Name() string           { return "no-oracle" }
func (oracleChecker) Event(ev cluster.Event) {}
func (c oracleChecker) Finish(a *Audit) []Violation {
	if n := a.Sup.OracleReads; n != 0 {
		return []Violation{{c.Name(), fmt.Sprintf("supervisor read simulator ground truth %d time(s)", n)}}
	}
	return nil
}

// --- bounded-fault liveness ---

// livenessChecker demands the job finish once the discrete faults stop:
// the executor keeps relaunching the supervisor until the budget
// (quiesce + drain) runs out, so an incomplete job means recovery wedged
// rather than merely lost the race.
type livenessChecker struct{}

func (livenessChecker) Name() string           { return "liveness" }
func (livenessChecker) Event(ev cluster.Event) {}
func (c livenessChecker) Finish(a *Audit) []Violation {
	if a.Sup.Completed {
		return nil
	}
	detail := fmt.Sprintf("job incomplete at budget %v (quiesce %v, ckpts=%d restarts=%d scratch=%d)",
		a.Spec.Budget, a.Spec.Quiesce, a.Sup.Checkpoints, a.Sup.Restarts, a.Sup.FromScratch)
	if a.Aborted != nil {
		detail += fmt.Sprintf("; supervisor aborted: %v", a.Aborted)
	}
	return []Violation{{c.Name(), detail}}
}
