package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"testing"

	"repro/internal/simtime"
)

// fleetGoldenRow is one fixed-seed fleet run whose event log, merged
// counters and FleetStats are pinned by one SHA-256.
type fleetGoldenRow struct {
	name string
	cfg  FleetConfig
	sum  string
}

// fleetGoldenCfg is the 2000-node / 16-shard fleet every row runs;
// netFault sets the digest-path fault probabilities and, when non-zero,
// a jitter wider than the tick so digests also arrive out of order.
func fleetGoldenCfg(seed int64, netFault float64) FleetConfig {
	cfg := FleetConfig{
		Nodes: 2000, Shards: 16, Seed: seed,
		HBLoss: netFault, DigestLoss: netFault, DigestDup: netFault,
	}
	if netFault > 0 {
		cfg.DigestJitter = 2500 * simtime.Microsecond
	}
	return cfg
}

var fleetGoldenRows = []fleetGoldenRow{
	{"seed1", fleetGoldenCfg(1, 0), "b94f0f80b513b4f2500bf8594421e88378c25ceb297a693424132afb8e7e5bed"},
	{"seed2", fleetGoldenCfg(2, 0), "4d728ab841fa2eb066ca2baa21d59531e175731d8de6b0638ef7a92a1c893c0a"},
	{"seed3", fleetGoldenCfg(3, 0), "64729eb9259cfe0ec5073a566ccd8c3ad80d9193fccd443697597e091b75fe55"},
	{"seed1-netfault", fleetGoldenCfg(1, 0.05), "22e0ab4bd7c69276243eb3549dce28cdd896a95ebc5d6f432d1e25cbc42559be"},
	{"seed2-netfault", fleetGoldenCfg(2, 0.05), "4f63ffa07057e87ea8e2e71536ec6c16bf757534680f83e88e4f8f3c143f43aa"},
	{"seed3-netfault", fleetGoldenCfg(3, 0.05), "32c22b6787101a55b1262f4bee82cfc5785b7adcf7c6ae883cdb786caabdcc58"},
	{"nofencing", func() FleetConfig {
		cfg := fleetGoldenCfg(4, 0.05)
		cfg.HBLoss = 0.15
		cfg.NoFencing = true
		return cfg
	}(), "7647a60d63699b324f8b1c8999b73c934eeb60e3e63a7f87953f7288ed6c6bab"},
	{"lazy", func() FleetConfig {
		cfg := fleetGoldenCfg(5, 0.05)
		cfg.LazyRestore = true
		return cfg
	}(), "8b40a0b46f9922195200d05f703d678332f4627b780d0b9b4fced8569c97f3f7"},
	// A cadence of 5 ticks does not divide the 16 shards, so each
	// shard's jobs fall into several cadence slots from the start.
	{"cadence5", func() FleetConfig {
		cfg := fleetGoldenCfg(6, 0.05)
		cfg.CkptEvery = 5
		return cfg
	}(), "f904a2e3a5bfc8b33612d7792e96c49493701286681617a5f81bbdd1e49a8cc4"},
}

// fleetGoldenSpan is how much simulated time every golden row runs.
const fleetGoldenSpan = 300 * simtime.Millisecond

// fleetGoldenSupervisor builds one row's root supervisor under a seeded
// fault schedule: half of its faults permanent, half repaired after
// 40ms, plus one whole-shard outage that forces migrations.
func fleetGoldenSupervisor(t *testing.T, cfg FleetConfig) *RootSupervisor {
	t.Helper()
	r := MustNewRootSupervisor(cfg)
	rng := rand.New(rand.NewSource(cfg.Seed))
	for i := 0; i < 40; i++ {
		at := simtime.Duration(20+rng.Intn(260)) * simtime.Millisecond
		perm := rng.Intn(2) == 0
		repair := 40 * simtime.Millisecond
		if perm {
			repair = 0
		}
		if err := r.FailAt(at, rng.Intn(cfg.Nodes), perm, repair); err != nil {
			t.Fatal(err)
		}
	}
	// Shard 3 owns nodes [375, 500): take all of it down permanently.
	for node := 375; node < 500; node++ {
		if err := r.FailAt(150*simtime.Millisecond, node, true, 0); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// fleetGoldenRun runs one row for fleetGoldenSpan and returns the
// SHA-256 over the event log, the merged counters and the stats.
func fleetGoldenRun(t *testing.T, cfg FleetConfig) string {
	t.Helper()
	r := fleetGoldenSupervisor(t, cfg)
	st := r.Run(fleetGoldenSpan)
	js, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write([]byte(FormatEvents(r.Events)))
	h.Write([]byte(r.Counters().String()))
	h.Write(js)
	return hex.EncodeToString(h.Sum(nil))
}

// The fleet's observable outcome is pinned: a change to the shard tick,
// the digest path or the detectors that is meant to be host-only must
// leave every row's event log, merged counters and stats byte-identical.
func TestFleetEventLogGolden(t *testing.T) {
	for _, row := range fleetGoldenRows {
		t.Run(row.name, func(t *testing.T) {
			if got := fleetGoldenRun(t, row.cfg); got != row.sum {
				t.Fatalf("fleet golden sha256 %s, want %s", got, row.sum)
			}
		})
	}
}
