package experiments

import (
	"encoding/json"
	"fmt"
	"strings"
)

// MarshalRecords renders recs as a JSON array with one record per line,
// so a re-run diffs record by record.
func MarshalRecords(recs []Record) ([]byte, error) {
	var b strings.Builder
	b.WriteString("[\n")
	for i, r := range recs {
		line, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		b.Write(line)
		if i < len(recs)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("]\n")
	return []byte(b.String()), nil
}

// SimDiff compares the sim-clock records of a pinned run with those of
// a new one, keyed by experiment, case and metric, over the experiments
// the new run holds. It returns one line per record whose value
// changed, that appeared or that vanished, in the new run's order (the
// vanished ones last). Records whose clock is "host" are wall-clock
// measurements and are never compared: a simulated value is the same
// on every host and run, so any difference is a behaviour change.
func SimDiff(pinned, got []Record) []string {
	key := func(r Record) string { return r.Exp + " | " + r.Case + " | " + r.Metric }
	ran := map[string]bool{}
	for _, r := range got {
		ran[r.Exp] = true
	}
	old := map[string]Record{}
	for _, r := range pinned {
		if r.Clock == "sim" && ran[r.Exp] {
			old[key(r)] = r
		}
	}
	var diffs []string
	for _, r := range got {
		if r.Clock != "sim" {
			continue
		}
		k := key(r)
		was, ok := old[k]
		delete(old, k)
		switch {
		case !ok:
			diffs = append(diffs, fmt.Sprintf("%s: new record = %v", k, r.Value))
		case was.Value != r.Value || was.N != r.N || was.Unit != r.Unit:
			diffs = append(diffs, fmt.Sprintf("%s: %v %s (n=%d) -> %v %s (n=%d)", k, was.Value, was.Unit, was.N, r.Value, r.Unit, r.N))
		}
	}
	for _, r := range pinned {
		if _, ok := old[key(r)]; ok {
			diffs = append(diffs, fmt.Sprintf("%s: vanished (was %v)", key(r), r.Value))
		}
	}
	return diffs
}
