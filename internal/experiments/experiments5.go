package experiments

import (
	"slices"

	"repro/internal/chaos"
)

// E13 runs the deterministic chaos harness over a block of consecutive
// seeds (1–200, quick 1–25) twice — once as shipped and once with epoch
// fencing disabled — and records invariant violations per
// configuration: the total, and one count per invariant of
// chaos.DefaultCheckers plus any other invariant that fires. The
// shipped build must hold every invariant across the whole sweep; the
// broken build exists to prove the harness has teeth: the double-commit
// checker must catch a fenced-off incarnation's publish landing on some
// seeds, and each catch replays from its seed alone (chaos.Replay(seed,
// "")), so the first one is recorded as first_bad_seed.
func E13(quick bool) []Record {
	seeds := 200
	if quick {
		seeds = 25
	}
	var names []string
	for _, c := range chaos.DefaultCheckers() {
		names = append(names, c.Name())
	}
	rec := &recorder{exp: "E13"}
	for _, broken := range []bool{false, true} {
		cs := "shipped"
		if broken {
			cs = "no-fencing"
		}
		completed, total, firstBad := 0, 0, int64(0)
		byInv := map[string]int{}
		for i := 0; i < seeds; i++ {
			sp := chaos.Generate(int64(1 + i))
			sp.NoFencing = broken
			r := chaos.Run(sp)
			if r.Completed {
				completed++
			}
			for _, v := range r.Violations {
				byInv[v.Invariant]++
			}
			total += len(r.Violations)
			if len(r.Violations) > 0 && firstBad == 0 {
				firstBad = sp.Seed
			}
		}
		rec.count(cs, "seeds", int64(seeds))
		rec.count(cs, "completed", int64(completed))
		rec.count(cs, "violations", int64(total))
		invs := slices.Clone(names)
		for inv := range byInv {
			if !slices.Contains(names, inv) {
				invs = append(invs, inv)
			}
		}
		slices.Sort(invs[len(names):])
		for _, inv := range invs {
			rec.count(cs, "violations."+inv, int64(byInv[inv]))
		}
		if firstBad != 0 {
			rec.add(cs, "first_bad_seed", "seed", 1, float64(firstBad))
		}
	}
	return rec.done()
}
