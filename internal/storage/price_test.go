package storage

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/simtime"
)

// priceTarget is one target under the price trace, with the switches the
// script needs: take it down and back up, and install a fault policy
// (nil for kinds that have none).
type priceTarget struct {
	name      string
	t         Target
	down, up  func()
	setFaults func(*FaultPolicy)
}

func priceTargets(onOutage func(*Server)) []priceTarget {
	cm := costmodel.Default2005()
	var out []priceTarget

	localUp := true
	local := NewLocal("disk0", cm, func() bool { return localUp })
	out = append(out, priceTarget{"local", local,
		func() { localUp = false }, func() { localUp = true }, local.SetFaults})

	srv := NewServer("ckpt-srv", cm)
	out = append(out, priceTarget{"remote", NewRemote("net0", srv),
		srv.Fail, srv.Recover, func(fp *FaultPolicy) {
			if fp != nil {
				fp.OnOutage = func() { onOutage(srv) }
			}
			srv.SetFaults(fp)
		}})

	ramUp := true
	out = append(out, priceTarget{"memory", NewMemory("ram0", func() bool { return ramUp }),
		func() { ramUp = false }, func() { ramUp = true }, nil})

	wireUp := true
	buddy := NewLocal("buddy0", cm, func() bool { return wireUp })
	out = append(out, priceTarget{"wire-local", OverWire(buddy, cm),
		func() { wireUp = false }, func() { wireUp = true }, buddy.SetFaults})
	return out
}

// priceTrace runs a fixed script of operations against every target kind
// and records each Env.Wait (duration in ns, label) under the operation
// that paid it, followed by the operation's error and result size.
func priceTrace() string {
	var b strings.Builder
	env := &Env{Bill: costmodel.Discard{}, Wait: func(d simtime.Duration, what string) {
		fmt.Fprintf(&b, "    wait %d %s\n", int64(d), what)
	}}
	op := func(format string, args ...any) { fmt.Fprintf(&b, "  "+format+"\n", args...) }
	res := func(n int, err error) { fmt.Fprintf(&b, "    -> n=%d err=%v\n", n, err) }
	batch := func(t Target, names []string) {
		op("readbatch %v", names)
		br, ok := t.(BatchReader)
		if !ok {
			b.WriteString("    -> not a BatchReader\n")
			return
		}
		out, err := br.ReadBatch(names, env)
		total := 0
		for _, d := range out {
			total += len(d)
		}
		res(total, err)
	}
	read := func(t Target, name string) {
		op("read %s", name)
		data, err := t.ReadObject(name, env)
		res(len(data), err)
	}
	size := func(t Target, name string) {
		op("size %s", name)
		n, err := t.ObjectSize(name)
		res(n, err)
	}

	outage := func(srv *Server) {
		b.WriteString("    outage\n")
		srv.Recover()
	}
	sizes := []int{0, 1, 100, chunk, chunk + 1, 300_000}
	for _, pt := range priceTargets(outage) {
		t := pt.t
		fmt.Fprintf(&b, "== %s (%s, %s)\n", pt.name, t.Name(), t.Kind())

		var names []string
		for _, n := range sizes {
			for _, atomic := range []bool{false, true} {
				name := fmt.Sprintf("o%d-%v", n, atomic)
				op("write %s atomic=%v", name, atomic)
				res(n, Write(t, name, payload(n), WriteOptions{Atomic: atomic, Env: env}))
				names = append(names, name)
			}
		}

		op("create split")
		w, err := t.Create("split", env)
		res(0, err)
		p := payload(300_000)
		for _, r := range [][2]int{{0, 100}, {100, 70_000}, {70_000, 300_000}} {
			op("write split[%d:%d]", r[0], r[1])
			n, err := w.Write(p[r[0]:r[1]])
			res(n, err)
		}
		op("commit split")
		res(0, w.Commit())

		op("create aborted")
		w, err = t.Create("aborted", env)
		res(0, err)
		op("write aborted")
		n, err := w.Write(p[:1000])
		res(n, err)
		w.Abort()

		for _, name := range append(names, "split", "aborted") {
			read(t, name)
		}
		batch(t, names)
		batch(t, []string{"split", "missing", "o1-false"})
		batch(t, nil)

		op("create stage.staging")
		w, err = t.Create(StagingName("stage"), env)
		res(0, err)
		op("write stage.staging")
		n, err = w.Write(p[:5000])
		res(n, err)
		op("commit stage.staging")
		res(0, w.Commit())
		op("publish stage")
		res(0, t.Publish(StagingName("stage"), "stage", env))
		op("publish ghost")
		res(0, t.Publish(StagingName("ghost"), "ghost", env))
		op("write chained parent=stage")
		res(0, Write(t, "child", payload(2000), WriteOptions{Parent: "stage", Env: env}))
		op("write chained parent=ghost")
		res(0, Write(t, "orphan", payload(2000), WriteOptions{Parent: "ghost", Env: env}))
		size(t, "stage")
		size(t, "ghost")
		op("delete stage")
		res(0, t.Delete("stage"))
		op("delete ghost")
		res(0, t.Delete("ghost"))
		op("list %v", t.List())

		pt.down()
		op("down available=%v", t.Available())
		op("create new")
		_, err = t.Create("new", env)
		res(0, err)
		op("write new")
		res(0, Write(t, "new", payload(10), WriteOptions{Atomic: true, Env: env}))
		read(t, "split")
		batch(t, []string{"split"})
		op("delete split")
		res(0, t.Delete("split"))
		size(t, "split")
		op("publish child")
		res(0, t.Publish(StagingName("child"), "child", env))
		pt.up()
		op("up available=%v", t.Available())
	}

	for round, seed := range []int64{11, 12, 13} {
		for _, pt := range priceTargets(outage) {
			t := pt.t
			var fp *FaultPolicy
			if pt.setFaults != nil {
				fp = &FaultPolicy{WriteFault: 0.3, OutageFrac: 0.5, SilentTear: 0.4,
					PublishFault: 0.25, Rng: rand.New(rand.NewSource(seed))}
				pt.setFaults(fp)
			}
			fmt.Fprintf(&b, "== round %d %s faults=%v\n", round, pt.name, fp != nil)
			var names []string
			for i := 0; i < 18; i++ {
				name := fmt.Sprintf("f%d", i)
				atomic := i%3 != 0
				op("write %s atomic=%v", name, atomic)
				res(0, Write(t, name, payload(sizes[i%len(sizes)]+i), WriteOptions{Atomic: atomic, Env: env}))
				names = append(names, name)
			}
			op("writebatch")
			np, err := WriteBatch(t, []BatchItem{
				{Object: "b0", Data: payload(3000)},
				{Object: "b1", Parent: "b0", Data: payload(200)},
				{Object: "b2", Parent: "b1", Data: payload(chunk + 7)},
			}, env)
			res(np, err)
			for _, name := range append(names, "b0", "b1", "b2") {
				size(t, name)
			}
			for _, name := range names {
				read(t, name)
			}
			batch(t, []string{"b0", "b1", "b2"})
			if fp != nil {
				op("counts crashes=%d outages=%d tears=%d publishfails=%d",
					fp.Crashes, fp.Outages, fp.Tears, fp.PublishFails)
			}
		}
	}
	return b.String()
}

// TestTargetPriceTrace pins what every storage operation costs on the
// simulated clock, per target kind: each Env.Wait's duration, label and
// order, every fault-policy outcome, and each operation's error and
// result size. A diff here is a change to the program's simulated
// behaviour, not a cosmetic one.
func TestTargetPriceTrace(t *testing.T) {
	want, err := os.ReadFile("testdata/price_trace.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := priceTrace()
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("price trace diverges at line %d:\n got: %q\nwant: %q", i+1, g, w)
		}
	}
}
