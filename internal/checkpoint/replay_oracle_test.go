package checkpoint

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/simos/mem"
)

// oraclePlan is what the map-based planner below returns.
type oraclePlan struct {
	jobs   []pageJob
	copied int
	pruned int
}

// oraclePlanReplay is the map-based planner planReplay replaced, kept
// as its reference: one map entry and one heap job per page, a
// comparison sort of the leaf sections and of the jobs.
func oraclePlanReplay(chain []*Image) (oraclePlan, error) {
	var plan oraclePlan
	leaf := chain[len(chain)-1]
	secs := make([]VMASection, len(leaf.VMAs))
	copy(secs, leaf.VMAs)
	sort.Slice(secs, func(i, j int) bool { return secs[i].Start < secs[j].Start })
	mapped := func(a mem.Addr) bool {
		i := sort.Search(len(secs), func(i int) bool { return secs[i].Start+mem.Addr(secs[i].Length) > a })
		return i < len(secs) && a >= secs[i].Start
	}

	byPage := make(map[mem.PageNum]*pageJob)
	for _, img := range chain {
		for _, v := range img.VMAs {
			for _, e := range v.Extents {
				if len(e.Data) == 0 {
					continue
				}
				if !mapped(e.Addr) {
					continue
				}
				for off := 0; off < len(e.Data); {
					a := e.Addr + mem.Addr(off)
					if !mapped(a) {
						return plan, fmt.Errorf("checkpoint: restore extent %#x: %w",
							uint64(e.Addr), &mem.Fault{Addr: a, Access: mem.AccessWrite})
					}
					n := mem.PageSize - a.Offset()
					if rem := len(e.Data) - off; n > rem {
						n = rem
					}
					pn := a.Page()
					j := byPage[pn]
					if j == nil {
						j = &pageJob{page: pn}
						byPage[pn] = j
					}
					j.spans = append(j.spans, pageSpan{off: a.Offset(), data: e.Data[off : off+n]})
					off += n
				}
			}
		}
	}

	plan.jobs = make([]pageJob, 0, len(byPage))
	for _, j := range byPage {
		plan.pruned += oraclePruneSpans(j)
		for _, s := range j.spans {
			plan.copied += len(s.data)
		}
		plan.jobs = append(plan.jobs, *j)
	}
	sort.Slice(plan.jobs, func(i, j int) bool { return plan.jobs[i].page < plan.jobs[j].page })
	return plan, nil
}

// oraclePruneSpans is the pruning oraclePlanReplay used: spans wholly
// covered by later spans of the page are dropped, the rest kept in
// chain order.
func oraclePruneSpans(j *pageJob) int {
	if len(j.spans) < 2 {
		return 0
	}
	type iv struct{ lo, hi int }
	var covered []iv
	keep := make([]bool, len(j.spans))
	pruned := 0
	for i := len(j.spans) - 1; i >= 0; i-- {
		s := j.spans[i]
		lo, hi := s.off, s.off+len(s.data)
		hidden := false
		for _, c := range covered {
			if c.lo <= lo && hi <= c.hi {
				hidden = true
				break
			}
		}
		if hidden {
			pruned += len(s.data)
			continue
		}
		keep[i] = true
		merged := iv{lo, hi}
		out := covered[:0]
		for _, c := range covered {
			if c.hi < merged.lo || c.lo > merged.hi {
				out = append(out, c)
				continue
			}
			if c.lo < merged.lo {
				merged.lo = c.lo
			}
			if c.hi > merged.hi {
				merged.hi = c.hi
			}
		}
		covered = append(out, merged)
	}
	kept := j.spans[:0]
	for i, s := range j.spans {
		if keep[i] {
			kept = append(kept, s)
		}
	}
	j.spans = kept
	return pruned
}

// oracleApply replays an oracle plan the way the old page-buffer loop
// did: per page in order, the page's current bytes (zero when it has no
// frame) with its spans applied, written back as one full page — one
// materialization, one dirty bit and one version-clock bump per page.
func oracleApply(as *mem.AddressSpace, plan oraclePlan) error {
	buf := make([]byte, mem.PageSize)
	for _, j := range plan.jobs {
		if err := as.ReadDirect(j.page.Base(), buf); err != nil {
			return err
		}
		applySpans(buf, j.spans)
		if err := as.WriteDirect(j.page.Base(), buf); err != nil {
			return err
		}
	}
	return nil
}

// randomReplayChain builds a chain of 2..6 images over a random leaf
// layout of 2..5 sections, adjacent or apart, listed unsorted. Extents
// are empty, partial, full-page or several pages long, overlap across
// images, cross from one section into an adjacent one, and some lie in
// a section the leaf no longer maps. With offLayout set, one extent
// starts mapped and runs off the layout.
func randomReplayChain(rng *rand.Rand, offLayout bool) []*Image {
	type run struct{ start, end mem.Addr } // contiguous mapped bytes
	var secs []VMASection
	var runs []run
	next := mem.Addr(0x10000)
	for i, n := 0, 2+rng.Intn(4); i < n; i++ {
		if i > 0 && rng.Intn(2) == 0 {
			next += mem.Addr(1+rng.Intn(3)) * mem.PageSize // a gap
		}
		length := uint64(1+rng.Intn(6)) * mem.PageSize
		secs = append(secs, VMASection{Start: next, Length: length, Kind: mem.KindAnon, Prot: mem.ProtRW})
		if len(runs) > 0 && runs[len(runs)-1].end == next {
			runs[len(runs)-1].end += mem.Addr(length)
		} else {
			runs = append(runs, run{next, next + mem.Addr(length)})
		}
		next += mem.Addr(length)
	}
	// A section earlier images map and the leaf does not, just past the
	// leaf's last one: extents there are stale.
	dead := VMASection{Start: next + mem.PageSize, Length: 2 * mem.PageSize, Kind: mem.KindAnon, Prot: mem.ProtRW}

	data := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	extent := func() Extent {
		r := runs[rng.Intn(len(runs))]
		size := int(r.end - r.start)
		var length int
		switch rng.Intn(5) {
		case 0:
			length = 0
		case 1:
			length = mem.PageSize
		case 2:
			length = 1 + rng.Intn(3*mem.PageSize)
		default:
			length = 1 + rng.Intn(mem.PageSize)
		}
		if length > size {
			length = size
		}
		off := rng.Intn(size - length + 1)
		if length == mem.PageSize && rng.Intn(2) == 0 {
			off &^= mem.PageSize - 1 // page-aligned: prunes what it covers
		}
		return Extent{Addr: r.start + mem.Addr(off), Data: data(length)}
	}

	links := 2 + rng.Intn(5)
	chain := make([]*Image, links)
	var parent string
	for li := range chain {
		img := &Image{Mode: ModeIncremental, PID: 1, Seq: uint64(li + 1), Exe: "x", Parent: parent}
		if li == 0 {
			img.Mode, img.Parent = ModeFull, ""
		}
		// The extents are listed under one section; the planner reads
		// only their addresses.
		img.VMAs = append([]VMASection(nil), secs...)
		for i := range img.VMAs {
			img.VMAs[i].Extents = nil
		}
		for e := 0; e < 1+rng.Intn(8); e++ {
			img.VMAs[0].Extents = append(img.VMAs[0].Extents, extent())
		}
		if li < links-1 {
			d := dead
			d.Extents = []Extent{{Addr: d.Start + mem.Addr(rng.Intn(mem.PageSize)), Data: data(1 + rng.Intn(mem.PageSize))}}
			img.VMAs = append(img.VMAs, d)
		}
		rng.Shuffle(len(img.VMAs), func(i, j int) { img.VMAs[i], img.VMAs[j] = img.VMAs[j], img.VMAs[i] })
		parent = img.ObjectName()
		chain[li] = img
	}
	if offLayout {
		r := runs[rng.Intn(len(runs))]
		img := chain[rng.Intn(links)]
		img.VMAs[0].Extents = append(img.VMAs[0].Extents,
			Extent{Addr: r.end - mem.Addr(1+rng.Intn(100)), Data: data(101 + rng.Intn(mem.PageSize))})
	}
	return chain
}

// replayAS maps the leaf's layout and, with premade set, writes a random
// quarter of its pages first (a span of up to a whole page each) and
// reads another quarter, which makes their page structs without frames.
func replayAS(t *testing.T, leaf *Image, seed int64, premade bool) *mem.AddressSpace {
	t.Helper()
	as := mem.NewAddressSpace()
	for _, v := range leaf.VMAs {
		if _, err := as.Map(v.Start, v.Length, mem.ProtRW, v.Kind, ""); err != nil {
			t.Fatal(err)
		}
	}
	if !premade {
		return as
	}
	rng := rand.New(rand.NewSource(seed))
	for _, v := range leaf.VMAs {
		for pn := v.Start.Page(); pn < (v.Start + mem.Addr(v.Length)).Page(); pn++ {
			switch rng.Intn(4) {
			case 0:
				b := make([]byte, 1+rng.Intn(mem.PageSize))
				rng.Read(b)
				if err := as.WriteDirect(pn.Base()+mem.Addr(rng.Intn(mem.PageSize-len(b)+1)), b); err != nil {
					t.Fatal(err)
				}
			case 1:
				if err := as.Read(pn.Base(), make([]byte, 1)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return as
}

// replayState is every resident page's number, bytes, dirty bit and
// version, then the version a probe write after them gets: the clock.
func replayState(t *testing.T, as *mem.AddressSpace, probe mem.Addr) string {
	t.Helper()
	var b bytes.Buffer
	for _, pi := range as.ResidentPages() {
		fmt.Fprintf(&b, "%#x %v %d %x\n", uint64(pi.Num), pi.Page.Dirty(), pi.Page.Version(), pi.Page.Data())
	}
	if err := as.WriteDirect(probe, []byte{1}); err != nil {
		t.Fatal(err)
	}
	for _, pi := range as.ResidentPages() {
		if pi.Num == probe.Page() {
			fmt.Fprintf(&b, "clock %d\n", pi.Page.Version())
		}
	}
	return b.String()
}

// TestPlanReplayMatchesMapPlanner: on random chains the linear planner
// gives the map-based one's jobs (every span the same slice of the same
// image), copied and pruned counts, and error; and its plan restores
// into fresh and pre-materialized address spaces, at 1, 2 and 8
// workers, exactly as the old per-page loop did: bytes, dirty bits,
// versions and the version clock.
func TestPlanReplayMatchesMapPlanner(t *testing.T) {
	faults := 0
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		chain := randomReplayChain(rng, seed%8 == 7)
		want, wantErr := oraclePlanReplay(chain)
		got, err := planReplay(chain)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("seed %d: error %v, the map planner's %v", seed, err, wantErr)
		}
		if err != nil {
			faults++
			continue
		}
		if got.copied != want.copied || got.pruned != want.pruned {
			t.Fatalf("seed %d: copied %d pruned %d, the map planner's %d and %d", seed, got.copied, got.pruned, want.copied, want.pruned)
		}
		if len(got.jobs) != len(want.jobs) {
			t.Fatalf("seed %d: %d jobs, the map planner's %d", seed, len(got.jobs), len(want.jobs))
		}
		for i, j := range got.jobs {
			w := want.jobs[i]
			if j.page != w.page || len(j.spans) != len(w.spans) {
				t.Fatalf("seed %d: job %d is page %#x with %d spans, want page %#x with %d", seed, i, uint64(j.page), len(j.spans), uint64(w.page), len(w.spans))
			}
			for k, s := range j.spans {
				ws := w.spans[k]
				if s.off != ws.off || len(s.data) != len(ws.data) || &s.data[0] != &ws.data[0] {
					t.Fatalf("seed %d: page %#x span %d differs from the map planner's", seed, uint64(j.page), k)
				}
			}
		}

		leaf := chain[len(chain)-1]
		probe := leaf.VMAs[0].Start
		for _, premade := range []bool{false, true} {
			ref := replayAS(t, leaf, seed, premade)
			if err := oracleApply(ref, want); err != nil {
				t.Fatal(err)
			}
			wantState := replayState(t, ref, probe)
			for _, workers := range []int{1, 2, 8} {
				as := replayAS(t, leaf, seed, premade)
				if err := applyPlan(as, &got, workers); err != nil {
					t.Fatalf("seed %d workers %d: %v", seed, workers, err)
				}
				if replayState(t, as, probe) != wantState {
					t.Fatalf("seed %d premade %v workers %d: restored pages differ from the old loop's", seed, premade, workers)
				}
			}
		}
	}
	if faults == 0 {
		t.Fatal("no chain ran off its layout")
	}
}

// TestPlanReplayAllocationCeiling: planning allocates a constant number
// of times, whatever the chain's length.
func TestPlanReplayAllocationCeiling(t *testing.T) {
	remote, leaf := buildChain(t, 17)
	full, err := LoadChain(remote, nil, leaf)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 9, 17} {
		chain := full[:n]
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := planReplay(chain); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 5 {
			t.Fatalf("planning %d images made %.0f allocations, want at most 5", n, allocs)
		}
	}
}

// TestReplayKeepsNoDeadSpans: a plan holds only the spans it will copy,
// so a pruned span keeps no image bytes reachable; and a lazy session
// clears each job's spans once it serves the page, and the hot pages'
// spans when it loads the plan.
func TestReplayKeepsNoDeadSpans(t *testing.T) {
	remote, leaf := buildTestChain(t)
	chain, err := LoadChain(remote, nil, leaf)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := planReplay(chain)
	if err != nil {
		t.Fatal(err)
	}
	if plan.pruned == 0 {
		t.Fatal("the test chain prunes nothing")
	}
	n, copied := 0, 0
	for _, j := range plan.jobs {
		if &j.spans[0] != &plan.spans[n] || cap(j.spans) != len(j.spans) {
			t.Fatalf("page %#x's spans are not the plan's next %d", uint64(j.page), len(j.spans))
		}
		n += len(j.spans)
	}
	for _, s := range plan.spans {
		copied += len(s.data)
	}
	if n != len(plan.spans) || cap(plan.spans) != n || copied != plan.copied {
		t.Fatalf("the plan holds %d spans (cap %d) of %d bytes; its jobs hold %d of %d", len(plan.spans), cap(plan.spans), copied, n, plan.copied)
	}

	sess, p, _ := lazyFromChain(t, remote, leaf, 2, nil)
	if _, err := sess.Prefetch(1); err != nil {
		t.Fatal(err)
	}
	var job pageJob
	for _, j := range sess.jobs {
		if j.spans != nil {
			job = j
			break
		}
	}
	if job.spans == nil {
		t.Fatal("no unserved job after one prefetch")
	}
	spans := job.spans
	if err := p.AS.Read(job.page.Base(), make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	for _, s := range spans {
		if s.data != nil {
			t.Fatalf("page %#x was served and its spans still hold image bytes", uint64(job.page))
		}
	}
	if err := sess.DrainAll(); err != nil {
		t.Fatal(err)
	}
	for _, j := range sess.jobs[:cap(sess.jobs)] {
		for _, s := range j.spans[:cap(j.spans)] {
			if s.data != nil {
				t.Fatalf("after the drain, page %#x's spans still hold image bytes", uint64(j.page))
			}
		}
	}
}

// TestPlanReplayRejectsUnmappableLayout: a leaf whose sections overlap
// or are unaligned gives its pages no one slot each, and could not be
// mapped by a restore either, so planning it fails.
func TestPlanReplayRejectsUnmappableLayout(t *testing.T) {
	for _, secs := range [][]VMASection{
		{{Start: 0x10000, Length: 2 * mem.PageSize}, {Start: 0x11000, Length: mem.PageSize}},
		{{Start: 0x10100, Length: mem.PageSize}},
	} {
		leaf := &Image{Mode: ModeFull, PID: 1, Seq: 1, Exe: "x", VMAs: secs}
		if _, err := planReplay([]*Image{leaf}); err == nil {
			t.Fatalf("planned the layout %+v", secs)
		}
	}
}
