package main

import (
	"fmt"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/costmodel"
	"repro/internal/simos/kernel"
	"repro/internal/storage"
	apps "repro/internal/workload"
)

var restoreStorm = &workload{
	name: "restore-storm",
	why: "the read path over the same codec and storage layers as ckpt-stream: chain loads, " +
		"erasure reconstruction, replay and lazy restores do the work",
	op:         "eager restore (chain load and replay)",
	simRounds:  26,
	tinyRounds: 2,
	setup:      setupRestoreStorm,
}

const (
	stormChains = 4
	stormDeltas = 15
)

// stormChain is one stored chain and what restoring it must produce.
type stormChain struct {
	objs   []string
	want   uint64 // memory checksum of the process at the leaf
	replay int    // bytes an eager restore copies
}

// stormRun restores the set-up chains round-robin, eagerly and lazily.
type stormRun struct {
	cfg    config
	cm     *costmodel.Model
	reg    *kernel.Registry
	st     *erasureStore
	ledger *costmodel.Ledger
	env    *storage.Env
	chains []stormChain
}

func setupRestoreStorm(cfg config) (roundFunc, error) {
	mib := 4
	if cfg.tiny {
		mib = 1
	}
	cm := costmodel.Default2005()
	st, err := newErasureStore(cm, cfg.tr)
	if err != nil {
		return nil, err
	}
	l := costmodel.NewLedger()
	cfg.rec.ledger = l
	r := &stormRun{cfg: cfg, cm: cm, reg: kernel.NewRegistry(), st: st, ledger: l, env: storage.LedgerEnv(l)}
	for c := 0; c < stormChains; c++ {
		prog := apps.Sparse{MiB: mib, WriteFrac: 0.02, Seed: derive(cfg.seed, uint64(100+c))}
		r.reg.MustRegister(prog)
		m, err := newMachine(fmt.Sprintf("chain%d", c), cm, r.reg, prog, 8, uint64(c+1), nil)
		if err != nil {
			return nil, err
		}
		var ch stormChain
		for i := 0; i <= stormDeltas; i++ {
			if i > 0 {
				if err := m.step(1); err != nil {
					return nil, err
				}
			}
			parent := ""
			if i > 0 {
				parent = ch.objs[i-1]
			}
			img, _, err := m.capture(st.tgt, nil, parent)
			if err != nil {
				return nil, err
			}
			ch.objs = append(ch.objs, img.ObjectName())
		}
		m.trk.Close()
		ch.want = m.p.AS.Checksum()
		chain, err := checkpoint.LoadChainManifest(st.tgt, nil, ch.objs)
		if err != nil {
			return nil, err
		}
		if ch.replay, err = checkpoint.ReplayBytes(chain); err != nil {
			return nil, err
		}
		r.chains = append(r.chains, ch)
	}
	if cfg.corrupt {
		if err := r.corruptShard(); err != nil {
			return nil, err
		}
	}
	return r.round, nil
}

// corruptShard flips one byte of disk 1's shard of the first chain's
// head. Ops that read with disk 0 down then lack a decodable quorum.
func (r *stormRun) corruptShard() error {
	obj := r.chains[0].objs[0]
	d := r.st.disks[1]
	data, err := d.ReadObject(obj, nil)
	if err != nil {
		return err
	}
	data[len(data)/2] ^= 0xff
	return storage.Write(d, obj, data, storage.WriteOptions{Atomic: true})
}

// round restores every chain once eagerly and once lazily. Every other
// op reads with disk 0 down, which forces erasure reconstruction; the
// phase flips each round so both kinds see both states.
func (r *stormRun) round(i int) (float64, error) {
	rec := r.cfg.rec
	sim := 0.0
	for c := range r.chains {
		for kind := 0; kind < 2; kind++ {
			degraded := (kind+i)%2 == 1
			if degraded {
				rec.add("degraded_ops", 1)
			}
			r.st.disk0Up = !degraded
			var ms float64
			var err error
			if kind == 0 {
				ms, err = r.eager(&r.chains[c])
			} else {
				ms, err = r.lazy(&r.chains[c])
			}
			r.st.disk0Up = true
			rec.attempted++
			if err != nil {
				logf("chain %d: %v", c, err)
				rec.failed++
				continue
			}
			sim += ms
		}
	}
	return sim, nil
}

// eager loads the chain in one batched read and replays it. Its
// simulated latency is the read wait plus the modeled replay copy.
func (r *stormRun) eager(ch *stormChain) (float64, error) {
	rec, tr := r.cfg.rec, r.cfg.tr
	k := kernel.New(kernel.DefaultConfig("eager"), r.cm, r.reg)
	done := rec.opStart()
	t0, l0 := time.Now(), r.ledger.Total
	tr.begin("checkpoint.load")
	chain, err := checkpoint.LoadChainManifest(r.st.tgt, r.env, ch.objs)
	tr.end()
	if err != nil {
		done()
		return 0, err
	}
	tr.begin("checkpoint.replay")
	p, err := checkpoint.Restore(k, chain, checkpoint.RestoreOptions{Parallelism: width})
	tr.end()
	host := time.Since(t0)
	done()
	if err != nil {
		return 0, err
	}
	sim := (r.ledger.Total - l0 + checkpoint.RestoreCost(ch.replay, width)).Millis()
	rec.host(ms(host))
	rec.sim(sim)
	rec.add("replay_kib", float64(ch.replay)/1024)
	if !rec.verify(func() error { return checkSum(p.AS.Checksum(), ch.want) }) {
		return 0, fmt.Errorf("eager restore diverged")
	}
	return sim, nil
}

// lazy reads only the leaf, restarts from its hot pages, then drains
// the rest of the chain. Its simulated latency is the drained one; the
// time to first instruction is recorded separately.
func (r *stormRun) lazy(ch *stormChain) (float64, error) {
	rec, tr := r.cfg.rec, r.cfg.tr
	k := kernel.New(kernel.DefaultConfig("lazy"), r.cm, r.reg)
	n := len(ch.objs)
	done := rec.opStart()
	t0, l0 := time.Now(), r.ledger.Total
	blob, err := r.st.tgt.ReadObject(ch.objs[n-1], r.env)
	if err != nil {
		done()
		return 0, err
	}
	leafWait := r.ledger.Total - l0
	tr.begin("checkpoint.decode")
	leaf, err := checkpoint.Decode(blob)
	tr.end()
	if err != nil {
		done()
		return 0, err
	}
	tr.begin("checkpoint.lazy.restore")
	p, sess, err := checkpoint.LazyRestore(k, leaf, checkpoint.LazyOptions{
		RestoreOptions: checkpoint.RestoreOptions{Parallelism: width},
		Source:         r.st.tgt,
		Ancestors:      ch.objs[:n-1],
		ReadEnv:        r.env,
	})
	tr.end()
	if err != nil {
		done()
		return 0, err
	}
	ttfi := time.Since(t0)
	tr.begin("checkpoint.lazy.drain")
	err = sess.DrainAll()
	tr.end()
	drain := time.Since(t0) - ttfi
	done()
	st := sess.Stats()
	sess.Close()
	if err != nil {
		return 0, err
	}
	rec.add("lazy.ttfi_host_ms", ms(ttfi))
	rec.add("lazy.drain_host_ms", ms(drain))
	rec.add("lazy.ttfi_sim_ms", (leafWait + checkpoint.RestoreCost(st.HotBytes, width)).Millis())
	rec.add("lazy.hot_kib", float64(st.HotBytes)/1024)
	rec.add("lazy.faults_served", float64(st.FaultsServed))
	rec.add("lazy.prefetched", float64(st.Prefetched))
	if !rec.verify(func() error { return checkSum(p.AS.Checksum(), ch.want) }) {
		return 0, fmt.Errorf("lazy restore diverged")
	}
	return (r.ledger.Total - l0 + checkpoint.RestoreCost(st.PlanBytes, width)).Millis(), nil
}
