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
	{"seed1", fleetGoldenCfg(1, 0), "fe373b9d488fbdbd90575bb8e4170d9f4cecdb3d55aa7f98e06c1e89f84d8afe"},
	{"seed2", fleetGoldenCfg(2, 0), "6ed9c733b4a9d11f0e30d89d81fd998ef005ccfa613b013fdb1a3deef94ada2c"},
	{"seed3", fleetGoldenCfg(3, 0), "8fc8066491386cfd9b355cd3b6fa77e94c2d6c55b7748e383cf89d1320049b60"},
	{"seed1-netfault", fleetGoldenCfg(1, 0.05), "d3beb090a08f0af1d818425efea8dbe28686b3d423009475eb709d10a072b3e5"},
	{"seed2-netfault", fleetGoldenCfg(2, 0.05), "6081e6f80546cf3159316488622ce5f3464dd102578415f6d9b3e4a86e7b8516"},
	{"seed3-netfault", fleetGoldenCfg(3, 0.05), "2c37780f53d714c98a2a255c052e325ff2023bdad756a02af32f3946248e1919"},
	{"nofencing", func() FleetConfig {
		cfg := fleetGoldenCfg(4, 0.05)
		cfg.HBLoss = 0.15
		cfg.NoFencing = true
		return cfg
	}(), "f23763a2b0524a6cd022fc486789d6becbb0ab5e477e65761bf667a7d7274d41"},
	{"lazy", func() FleetConfig {
		cfg := fleetGoldenCfg(5, 0.05)
		cfg.LazyRestore = true
		return cfg
	}(), "fc75d76bcc8a8c16ae5acda3104f5ed8f97c265ffe6afeed577bc7f59b72c52d"},
}

// fleetGoldenRun runs one row for 300ms of simulated time under a
// seeded fault schedule (half permanent, half repaired after 40ms, plus
// one whole-shard outage that forces migrations) and returns the
// SHA-256 over the event log, the merged counters and the stats.
func fleetGoldenRun(t *testing.T, cfg FleetConfig) string {
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
	st := r.Run(300 * simtime.Millisecond)
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
