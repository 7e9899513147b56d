package chaos

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/trace"
)

// FleetViolations over hand-built event logs and stub object readers:
// each row pins which invariants fire, in order, and how often.
func TestFleetViolationsTable(t *testing.T) {
	ack := func(obj string) cluster.Event { return cluster.Event{Kind: cluster.EvAck, Object: obj} }
	retire := func(obj string) cluster.Event { return cluster.Event{Kind: cluster.EvRetire, Object: obj} }
	// objects is the stub store: a name maps to its bytes; absent names
	// are unreadable.
	reader := func(objects map[string][]byte) func(string) ([]byte, error) {
		return func(name string) ([]byte, error) {
			if b, ok := objects[name]; ok {
				return b, nil
			}
			return nil, errors.New("no such object")
		}
	}
	full := []byte{1}
	for _, tc := range []struct {
		name     string
		events   []cluster.Event
		objects  map[string][]byte
		counters map[string]int64
		want     []string
	}{
		{name: "ack then retire", events: []cluster.Event{ack("s000/a"), retire("s000/a")}},
		{name: "ack readable", events: []cluster.Event{ack("s000/a")},
			objects: map[string][]byte{"s000/a": full}},
		{name: "ack missing", events: []cluster.Event{ack("s000/a")},
			want: []string{"acked-durability"}},
		{name: "ack empty", events: []cluster.Event{ack("s000/a")},
			objects: map[string][]byte{"s000/a": {}}, want: []string{"acked-durability"}},
		{name: "acked twice reported once", events: []cluster.Event{ack("s000/a"), ack("s000/b"), ack("s000/a")},
			objects: map[string][]byte{"s000/b": full}, want: []string{"acked-durability"}},
		{name: "retire before a second ack", events: []cluster.Event{ack("s000/a"), retire("s000/a"), ack("s000/a")}},
		{name: "stale commit", events: []cluster.Event{{Kind: cluster.EvStaleCommit, Object: "s000/g"}},
			want: []string{"double-commit"}},
		{name: "double-commit counter", counters: map[string]int64{"fence.double_commits": 1},
			want: []string{"double-commit"}},
		{name: "fence unexpected", counters: map[string]int64{"fence.unexpected": 2},
			want: []string{"fence-epoch"}},
		{name: "gc foreign", counters: map[string]int64{"fence.gc_foreign": 1},
			want: []string{"shard-isolation"}},
		{name: "every invariant",
			events:   []cluster.Event{ack("s000/a"), {Kind: cluster.EvStaleCommit, Object: "s000/g"}},
			counters: map[string]int64{"fence.unexpected": 1, "fence.gc_foreign": 1},
			want:     []string{"double-commit", "fence-epoch", "shard-isolation", "acked-durability"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctr := trace.NewCounters()
			for k, v := range tc.counters {
				ctr.Inc(k, v)
			}
			vs := FleetViolations(&FleetAudit{Events: tc.events, Counters: ctr, ReadObject: reader(tc.objects)})
			var got []string
			for _, v := range vs {
				got = append(got, v.Invariant)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("violations %v, want %v (%v)", got, tc.want, vs)
			}
		})
	}
}
