package cluster

import (
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/costmodel"
	"repro/internal/detector"
	"repro/internal/mechanism"
	"repro/internal/policy"
	"repro/internal/simtime"
	"repro/internal/storage"
	"repro/internal/syslevel"
	"repro/internal/trace"
	"repro/internal/workload"
)

// lazySupervisor builds the standard 4-node autonomic topology with the
// restart-before-read failover path enabled.
func lazySupervisor(t *testing.T, c *Cluster, prog workload.Sparse, iters uint64, workers int) *Supervisor {
	t.Helper()
	mon := detector.NewMonitor(c, detector.NewTimeout(2*simtime.Millisecond),
		detector.Config{Period: 200 * simtime.Microsecond, Observer: 3}, c.Counters)
	sup := MustNewSupervisor(SupervisorConfig{
		C:           c,
		MkMech:      func() mechanism.Mechanism { return syslevel.NewCRAK() },
		Prog:        prog,
		Iterations:  iters,
		Policy:      policy.Fixed(simtime.Millisecond),
		Detector:    mon,
		ControlNode: 3,
		Incremental: true,
		RebaseEvery: 8,
		LazyRestore: true,
	})
	sup.restoreWorkers = workers
	return sup
}

// The lazy-failover tentpole end to end: with LazyRestore on, a mid-run
// node failure must restart the job from the leaf image alone, drain the
// rest in the background, and still finish with the exact reference
// fingerprint. The telemetry contract rides along: the restore is marked
// lazy in the event log, time-to-first-instruction is recorded per
// restore, and restore.latency is observed exactly once per restart (the
// double-count satellite).
func TestLazyFailoverEndToEnd(t *testing.T) {
	prog := workload.Sparse{MiB: 1, WriteFrac: 0.2, Seed: 51}
	want := referenceFingerprint(t, prog, 60)

	c := newCluster(t, 4, prog)
	sup := lazySupervisor(t, c, prog, 60, 4)

	jobNode := 0
	acks := 0
	sup.OnEvent = func(ev Event) {
		switch ev.Kind {
		case EvAdmit:
			jobNode = ev.Node
		case EvAck:
			acks++
		}
	}
	failed := false
	c.OnStep(func() {
		if !failed && acks >= 3 {
			failed = true
			c.Fail(jobNode)
		}
	})

	if err := sup.Run(2 * simtime.Second); err != nil {
		t.Fatal(err)
	}
	if !failed {
		t.Fatal("scenario never failed a node")
	}
	if !sup.Completed {
		t.Fatalf("job did not complete (ckpts=%d restarts=%d counters:\n%s)",
			sup.Checkpoints, sup.Restarts, c.Counters)
	}
	if sup.Fingerprint != want {
		t.Fatalf("fingerprint %#x want %#x: lazy failover lost state", sup.Fingerprint, want)
	}

	lazyRestores := c.Counters.Get("restore.lazy")
	if lazyRestores == 0 {
		t.Fatalf("restore.lazy = 0: failover never took the lazy path (counters:\n%s)", c.Counters)
	}
	if n := c.Counters.Get("restore.lazy_aborted"); n != 0 {
		t.Fatalf("restore.lazy_aborted = %d on a single clean failover", n)
	}
	var lazyEvents int64
	for _, ev := range sup.Events {
		if ev.Kind == EvRestore && strings.HasSuffix(ev.Object, " lazy") {
			lazyEvents++
		}
	}
	if lazyEvents != lazyRestores {
		t.Fatalf("%d lazy EvRestore events, restore.lazy = %d", lazyEvents, lazyRestores)
	}

	// Single-observation contract: one restore.latency sample per
	// restart, whichever path served it, and one TTFI sample per lazy
	// restore — with TTFI at most the full-restore latency.
	lat := sup.Metrics.Hist("restore.latency").Snapshot()
	if lat.N != sup.Restarts {
		t.Fatalf("restore.latency has %d observations, want %d (one per restart)", lat.N, sup.Restarts)
	}
	ttfi := sup.Metrics.Hist("restore.first_instr_latency").Snapshot()
	if int64(ttfi.N) != lazyRestores {
		t.Fatalf("restore.first_instr_latency has %d observations, want %d", ttfi.N, lazyRestores)
	}
	if ttfi.P50 > lat.P50 {
		t.Fatalf("TTFI p50 %.3f ms exceeds full restore p50 %.3f ms", ttfi.P50, lat.P50)
	}
	if n := c.Counters.Get("restore.count"); int(n) != sup.Restarts {
		t.Fatalf("restore.count = %d, want %d", n, sup.Restarts)
	}
}

// Digest-equivalence table at the supervisor level: the same seed, fault
// schedule, and workload run to completion with eager and lazy failover
// at several restore widths must produce identical result fingerprints —
// laziness and width change when bytes move, never which bytes.
func TestLazyVsEagerFingerprintAcrossWorkers(t *testing.T) {
	prog := workload.Sparse{MiB: 1, WriteFrac: 0.2, Seed: 52}
	want := referenceFingerprint(t, prog, 60)

	for _, workers := range []int{1, 4} {
		for _, lazy := range []bool{false, true} {
			c := newClusterSeed(t, 4, 52, prog)
			mon := detector.NewMonitor(c, detector.NewTimeout(2*simtime.Millisecond),
				detector.Config{Period: 200 * simtime.Microsecond, Observer: 3}, c.Counters)
			sup := MustNewSupervisor(SupervisorConfig{
				C:           c,
				MkMech:      func() mechanism.Mechanism { return syslevel.NewCRAK() },
				Prog:        prog,
				Iterations:  60,
				Policy:      policy.Fixed(simtime.Millisecond),
				Detector:    mon,
				ControlNode: 3,
				Incremental: true,
				RebaseEvery: 8,
				LazyRestore: lazy,
			})
			sup.restoreWorkers = workers
			jobNode := 0
			acks := 0
			sup.OnEvent = func(ev Event) {
				switch ev.Kind {
				case EvAdmit:
					jobNode = ev.Node
				case EvAck:
					acks++
				}
			}
			failed := false
			c.OnStep(func() {
				if !failed && acks >= 3 {
					failed = true
					c.Fail(jobNode)
				}
			})
			if err := sup.Run(2 * simtime.Second); err != nil {
				t.Fatalf("workers=%d lazy=%v: %v", workers, lazy, err)
			}
			if !sup.Completed {
				t.Fatalf("workers=%d lazy=%v: job did not complete (counters:\n%s)",
					workers, lazy, c.Counters)
			}
			if sup.Fingerprint != want {
				t.Fatalf("workers=%d lazy=%v: fingerprint %#x want %#x",
					workers, lazy, sup.Fingerprint, want)
			}
			if lazy && c.Counters.Get("restore.lazy") == 0 {
				t.Fatalf("workers=%d: lazy run never took the lazy path", workers)
			}
		}
	}
}

// Mid-restore node failure: the restored node dies while the lazy
// session is still draining. The superseded session must self-fence
// (abort, never serve state to the dead incarnation) and the next
// failover must still finish the job with the reference result.
func TestLazyMidRestoreNodeFailure(t *testing.T) {
	// Enough memory that the deferred plan takes many prefetch batches to
	// drain, and a detector fast enough to fail over inside that window.
	prog := workload.Sparse{MiB: 4, WriteFrac: 0.1, Seed: 53}
	want := referenceFingerprint(t, prog, 40)

	c := newCluster(t, 4, prog)
	mon := detector.NewMonitor(c, detector.NewTimeout(600*simtime.Microsecond),
		detector.Config{Period: 100 * simtime.Microsecond, Observer: 3}, c.Counters)
	sup := MustNewSupervisor(SupervisorConfig{
		C:           c,
		MkMech:      func() mechanism.Mechanism { return syslevel.NewCRAK() },
		Prog:        prog,
		Iterations:  40,
		Policy:      policy.Fixed(3 * simtime.Millisecond),
		Detector:    mon,
		ControlNode: 3,
		Incremental: true,
		RebaseEvery: 8,
		LazyRestore: true,
	})
	sup.restoreWorkers = 4

	jobNode := 0
	acks := 0
	struck := false
	sup.OnEvent = func(ev Event) {
		switch ev.Kind {
		case EvAdmit:
			jobNode = ev.Node
		case EvAck:
			acks++
		case EvRestore:
			// Strike the restored node the instant the lazy restore is
			// announced: the session has drained nothing yet, so the next
			// failover supersedes it mid-restore.
			if strings.HasSuffix(ev.Object, " lazy") && !struck {
				struck = true
				c.Fail(ev.Node)
			}
		}
	}
	failed := false
	c.OnStep(func() {
		if !failed && acks >= 3 {
			failed = true
			c.Fail(jobNode)
		}
	})

	if err := sup.Run(2 * simtime.Second); err != nil {
		t.Fatal(err)
	}
	if !struck {
		t.Fatal("no lazy restore happened — scenario did not run")
	}
	if !sup.Completed {
		t.Fatalf("job did not complete after mid-restore failure (counters:\n%s)", c.Counters)
	}
	if sup.Fingerprint != want {
		t.Fatalf("fingerprint %#x want %#x: state corrupted across the aborted session",
			sup.Fingerprint, want)
	}
	if n := c.Counters.Get("restore.lazy_aborted"); n == 0 {
		t.Fatalf("restore.lazy_aborted = 0: the superseded session never self-fenced (counters:\n%s)",
			c.Counters)
	}
	// Every restart still records exactly one restore.latency sample —
	// aborted sessions record none (their restore never finished).
	lat := sup.Metrics.Hist("restore.latency").Snapshot()
	aborted := int(c.Counters.Get("restore.lazy_aborted"))
	if lat.N != sup.Restarts-aborted {
		t.Fatalf("restore.latency has %d observations, want %d (restarts %d - aborted %d)",
			lat.N, sup.Restarts-aborted, sup.Restarts, aborted)
	}
}

// foldMidWalk wraps a storage target and runs a callback after the n-th
// read — the deterministic stand-in for a server-side compaction landing
// between a restore's chain walk reading the leaf and chasing its
// parent.
type foldMidWalk struct {
	storage.Target
	after int
	reads int
	then  func()
}

func (f *foldMidWalk) ReadObject(o string, env *storage.Env) ([]byte, error) {
	data, err := f.Target.ReadObject(o, env)
	f.reads++
	if f.reads == f.after && f.then != nil {
		fn := f.then
		f.then = nil
		fn()
	}
	return data, err
}

// The stale-manifest regression (races restore against compaction): the
// recovery walk reads the old incremental leaf, a concurrent
// CompactChain folds the chain under the leaf's name and retires its
// ancestors, and the walk's parent chase hits ErrNotFound. Before the
// fix, loadRecoveryChain fell back to the (also retired) lastFull with
// its stale manifest snapshot and recovery went from scratch; it must
// instead re-read the live manifest under the unchanged fence epoch and
// restore from the fold.
func TestRecoveryRefreshesManifestAfterConcurrentCompaction(t *testing.T) {
	srv := storage.NewServer("srv", costmodel.Default2005())
	remote := storage.NewRemote("net", srv)

	// A 3-link chain: full F <- delta D <- leaf L.
	page := make([]byte, 4096)
	for i := range page {
		page[i] = 0x5A
	}
	threads := []checkpoint.ThreadRecord{{TID: 1}}
	full := &checkpoint.Image{Mode: checkpoint.ModeFull, PID: 1, Seq: 1, Exe: "x",
		Threads: threads,
		VMAs: []checkpoint.VMASection{{Start: 0x1000, Length: 0x1000,
			Extents: []checkpoint.Extent{{Addr: 0x1000, Data: page}}}}}
	delta := &checkpoint.Image{Mode: checkpoint.ModeIncremental, PID: 1, Seq: 2, Exe: "x",
		Parent: full.ObjectName(), Threads: threads,
		VMAs: []checkpoint.VMASection{{Start: 0x1000, Length: 0x1000,
			Extents: []checkpoint.Extent{{Addr: 0x1000, Data: page[:64]}}}}}
	leaf := &checkpoint.Image{Mode: checkpoint.ModeIncremental, PID: 1, Seq: 3, Exe: "x",
		Parent: delta.ObjectName(), Threads: threads,
		VMAs: []checkpoint.VMASection{{Start: 0x1000, Length: 0x1000,
			Extents: []checkpoint.Extent{{Addr: 0x1000, Data: page[:32]}}}}}
	objs := []string{full.ObjectName(), delta.ObjectName(), leaf.ObjectName()}
	for _, img := range []*checkpoint.Image{full, delta, leaf} {
		data, err := img.EncodeBytes()
		if err != nil {
			t.Fatal(err)
		}
		if err := storage.Write(remote, img.ObjectName(), data, storage.WriteOptions{Atomic: true}); err != nil {
			t.Fatal(err)
		}
	}

	ctr := trace.NewCounters()
	s := &Supervisor{SupervisorConfig: SupervisorConfig{C: &Cluster{Counters: ctr}}, fence: storage.NewFenceDomain("job", ctr)}
	s.lastLeaf = leaf.ObjectName()
	s.lastFull = full.ObjectName()
	s.chainObjs = append([]string(nil), objs...)

	// The caller's manifest snapshot is stale: it predates the last ack,
	// so the batched fast path is skipped and recovery goes to the walk.
	stale := objs[:2]

	src := &foldMidWalk{Target: remote, after: 1}
	src.then = func() {
		st, err := storage.CompactChain(remote, objs, checkpoint.FoldEncodedChain, nil)
		if err != nil || st.Folded == "" {
			t.Fatalf("compaction failed: folded=%q err=%v", st.Folded, err)
		}
		if st.Folded != leaf.ObjectName() {
			t.Fatalf("fold published under %s, want the leaf's name %s", st.Folded, leaf.ObjectName())
		}
		s.chainObjs = []string{st.Folded}
		s.lastFull = st.Folded
	}

	chain, _ := s.loadRecoveryChain(src, stale)
	if chain == nil {
		t.Fatalf("recovery found nothing — stale manifest won over the live fold (counters:\n%s)",
			s.Counters())
	}
	if len(chain) != 1 || chain[0].Mode != checkpoint.ModeFull {
		t.Fatalf("recovered a %d-link chain (head %v), want the 1-link fold", len(chain), chain[0].Mode)
	}
	if n := s.Counters().Get("restore.manifest_refresh"); n != 1 {
		t.Fatalf("restore.manifest_refresh = %d, want 1 (counters:\n%s)", n, s.Counters())
	}
	if n := s.Counters().Get("ckpt.chain_fallback"); n != 0 {
		t.Fatalf("ckpt.chain_fallback = %d: recovery rewound to lastFull despite a loadable live chain", n)
	}
}

// plainMech exposes only the mechanism.Mechanism surface of the
// mechanism it wraps: no delta, lazy-restart or parallel-restore
// capability, so a supervisor asking for one falls back.
type plainMech struct{ mechanism.Mechanism }

// A LazyRestore supervisor whose mechanism cannot restart lazily falls
// back to eager restores, and counts each declined lazy restore.
func TestLazyRestoreDeclinedIsCounted(t *testing.T) {
	prog := workload.Sparse{MiB: 1, WriteFrac: 0.2, Seed: 51}
	want := referenceFingerprint(t, prog, 60)

	c := newCluster(t, 4, prog)
	sup := lazySupervisor(t, c, prog, 60, 1)
	sup.MkMech = func() mechanism.Mechanism { return plainMech{syslevel.NewCRAK()} }
	jobNode, acks := 0, 0
	sup.OnEvent = func(ev Event) {
		switch ev.Kind {
		case EvAdmit:
			jobNode = ev.Node
		case EvAck:
			acks++
		}
	}
	failed := false
	c.OnStep(func() {
		if !failed && acks >= 3 {
			failed = true
			c.Fail(jobNode)
		}
	})
	if err := sup.Run(2 * simtime.Second); err != nil {
		t.Fatal(err)
	}
	if !failed || sup.Restarts == 0 {
		t.Fatalf("no failover happened (failed=%v restarts=%d)", failed, sup.Restarts)
	}
	if !sup.Completed || sup.Fingerprint != want {
		t.Fatalf("completed=%v fingerprint=%#x want %#x", sup.Completed, sup.Fingerprint, want)
	}
	if n := c.Counters.Get("restore.lazy"); n != 0 {
		t.Fatalf("restore.lazy = %d with a mechanism that cannot restart lazily", n)
	}
	if n, want := c.Counters.Get("restore.lazy_declined"), int64(sup.Restarts); n != want {
		t.Fatalf("restore.lazy_declined = %d, want %d (one per restart)", n, want)
	}
}
