// Replication-aware auditing. On replicated seeds an acked checkpoint
// may legally live only on node-local disks (always, in erasure mode),
// so the audit cannot witness durability through the server alone: the
// auditReader here reads the union of every node's disk plus the server
// — simulator ground truth, which Finish-time checkers are allowed. Its
// masked variant deletes one placement slot from the union, which is how
// the repl-durability checker simulates "one more failure than the run
// actually had" and demands the acked chain still restore.

package chaos

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/storage"
	"repro/internal/storage/erasure"
)

// auditServer is the mask key for the shared checkpoint server, matching
// the -1 the supervisor's ReplicaPlacement uses for its server slot.
const auditServer = -1

// auditReader is a read-only storage.Target spanning every node-local
// disk in the cluster plus the checkpoint server. Mirror mode returns
// the first surviving copy; erasure mode gathers every parseable shard
// (wherever a placement change left it) and decodes. Nodes in masked —
// and the server, under the auditServer key — are invisible.
type auditReader struct {
	c       *cluster.Cluster
	erasure bool
	masked  map[int]bool
}

// newAuditReader builds the union reader; masked may be nil.
func newAuditReader(c *cluster.Cluster, erasureMode bool, masked map[int]bool) *auditReader {
	return &auditReader{c: c, erasure: erasureMode, masked: masked}
}

// Name implements storage.Target.
func (a *auditReader) Name() string { return "chaos-audit" }

// Kind implements storage.Target.
func (a *auditReader) Kind() storage.Kind { return storage.KindReplicated }

// Available implements storage.Target.
func (a *auditReader) Available() bool { return true }

// disks yields every unmasked, reachable node disk in node order — the
// fixed iteration every read uses, so audits are deterministic.
func (a *auditReader) disks(fn func(node int, d storage.Target) bool) {
	for i := 0; i < a.c.NumNodes(); i++ {
		if a.masked[i] {
			continue
		}
		d := a.c.Node(i).Disk
		if d == nil || !d.Available() {
			continue
		}
		if !fn(i, d) {
			return
		}
	}
}

// ReadObject implements storage.Target.
func (a *auditReader) ReadObject(object string, env *storage.Env) ([]byte, error) {
	if a.erasure {
		var blobs [][]byte
		a.disks(func(_ int, d storage.Target) bool {
			if data, err := d.ReadObject(object, env); err == nil {
				blobs = append(blobs, data)
			}
			return true
		})
		// DecodeAny: shards stranded by an old placement or a partial
		// re-encode may join the gather; the best consistent group wins,
		// and blobs that are not valid shards are dropped as it parses.
		data, _, err := erasure.DecodeAny(blobs)
		if err != nil {
			return nil, fmt.Errorf("%w: %s (%v)", storage.ErrNotFound, object, err)
		}
		return data, nil
	}
	var out []byte
	a.disks(func(_ int, d storage.Target) bool {
		if data, err := d.ReadObject(object, env); err == nil {
			out = data
			return false
		}
		return true
	})
	if out != nil {
		return out, nil
	}
	if !a.masked[auditServer] {
		return storage.NewRemote("chaos-audit", a.c.Server).ReadObject(object, env)
	}
	return nil, fmt.Errorf("%w: %s", storage.ErrNotFound, object)
}

// ObjectSize implements storage.Target.
func (a *auditReader) ObjectSize(object string) (int, error) {
	data, err := a.ReadObject(object, nil)
	if err != nil {
		return 0, err
	}
	return len(data), nil
}

// List implements storage.Target: the sorted union over every witness.
func (a *auditReader) List() []string {
	seen := make(map[string]bool)
	a.disks(func(_ int, d storage.Target) bool {
		for _, n := range d.List() {
			seen[n] = true
		}
		return true
	})
	if !a.masked[auditServer] {
		for _, n := range storage.NewRemote("chaos-audit", a.c.Server).List() {
			seen[n] = true
		}
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Create implements storage.Target; the audit never writes.
func (a *auditReader) Create(object string, env *storage.Env) (storage.Writer, error) {
	return nil, errors.New("chaos: audit reader is read-only")
}

// Publish implements storage.Target; the audit never writes.
func (a *auditReader) Publish(staging, final string, env *storage.Env) error {
	return errors.New("chaos: audit reader is read-only")
}

// Delete implements storage.Target; the audit never writes.
func (a *auditReader) Delete(object string) error {
	return errors.New("chaos: audit reader is read-only")
}

// --- acked chains survive one more failure than the run had ---

// replDurabilityChecker is the replicated form of acked durability: for
// each placement slot, mask that slot out of the union of surviving
// copies and demand the final acked chain still load — the owner slot's
// mask is the headline "restorable after owner-node loss", the others
// are "restorable after the loss of any single replica" (mirrors) and
// "any m shards" (erasure, one slot at a time).
//
// A mask is only exercised when every other placement holder is alive:
// the checker simulates one failure beyond ground truth, and a slot
// already dead at audit has consumed the redundancy budget the mask
// would spend. Runs where a repair write was itself fault-injected
// (repl.repair_failed) are skipped — un-replicated redundancy is then
// the injected fault's doing, not a placement bug.
type replDurabilityChecker struct {
	lastAck string
}

func (c *replDurabilityChecker) Name() string { return "repl-durability" }

func (c *replDurabilityChecker) Event(ev cluster.Event) {
	if ev.Kind == cluster.EvAck {
		c.lastAck = ev.Object
	}
}

func (c *replDurabilityChecker) Finish(a *Audit) []Violation {
	sp := a.Spec
	if sp.Replication == "" || sp.NoFencing || c.lastAck == "" || !a.Sup.Completed {
		return nil
	}
	if a.C.Counters.Get("repl.repair_failed") > 0 {
		return nil
	}
	placement := a.Sup.ReplicaPlacement()
	if len(placement) == 0 {
		return nil
	}
	var out []Violation
	for i, node := range placement {
		if !c.othersAlive(a, placement, i) {
			continue
		}
		reader := newAuditReader(a.C, sp.Replication == "erasure", map[int]bool{node: true})
		if _, err := checkpoint.LoadChain(reader, nil, c.lastAck); err != nil {
			who := fmt.Sprintf("replica slot %d (node %d)", i, node)
			if i == 0 {
				who = fmt.Sprintf("the owner node %d", node)
			}
			out = append(out, Violation{c.Name(), fmt.Sprintf(
				"acked chain from %s not restorable with %s lost: %v", c.lastAck, who, err)})
		}
	}
	return out
}

// othersAlive reports whether every placement holder except slot i is
// alive at audit (the server never dies; outages heal before the audit).
func (c *replDurabilityChecker) othersAlive(a *Audit, placement []int, i int) bool {
	for j, node := range placement {
		if j == i || node < 0 {
			continue
		}
		if !a.C.NodeAlive(node) {
			return false
		}
	}
	return true
}

// --- re-replication converges ---

// replConvergedChecker demands that by the end of a completed run every
// live-chain object is fully replicated again: present (and, for
// erasure, holding the slot's own shard) on every placement slot whose
// node is alive. Quorum acks are allowed to leave replicas behind and
// failures are allowed to destroy them — this checker is the proof that
// the background repair sweeps (and the completion-time flush) win that
// race before the run is cut. Slots whose holder is dead at audit are
// exempt (repair cannot write to a dead disk, and if no spare existed
// the slot legally kept its dead holder); runs where a repair write was
// fault-injected (repl.repair_failed) are skipped entirely.
type replConvergedChecker struct{}

func (replConvergedChecker) Name() string           { return "repl-converged" }
func (replConvergedChecker) Event(ev cluster.Event) {}

func (c replConvergedChecker) Finish(a *Audit) []Violation {
	sp := a.Spec
	if sp.Replication == "" || sp.NoFencing || !a.Sup.Completed {
		return nil
	}
	if a.C.Counters.Get("repl.repair_failed") > 0 {
		return nil
	}
	placement := a.Sup.ReplicaPlacement()
	if len(placement) == 0 {
		return nil
	}
	erasureMode := sp.Replication == "erasure"
	var out []Violation
	for _, obj := range a.Sup.ChainObjects() {
		for i, node := range placement {
			// The server slot is not audited here: a server outage open at
			// the cut legally swallows late copies, and the restore ladder's
			// use of the server is covered by repl-durability's masks.
			if node < 0 || !a.C.NodeAlive(node) {
				continue
			}
			data, err := a.C.Node(node).Disk.ReadObject(obj, nil)
			if err != nil {
				out = append(out, Violation{c.Name(), fmt.Sprintf(
					"%s missing from replica slot %d (node %d) after repair had the whole run to converge", obj, i, node)})
				continue
			}
			if !erasureMode {
				continue
			}
			s, perr := erasure.ParseShard(data)
			if perr != nil || s.Index != i {
				out = append(out, Violation{c.Name(), fmt.Sprintf(
					"%s on slot %d (node %d) is not that slot's shard (%v)", obj, i, node, perr)})
			}
		}
	}
	return out
}
