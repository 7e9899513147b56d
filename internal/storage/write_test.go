package storage

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/costmodel"
)

func TestWriteDispatch(t *testing.T) {
	l := NewLocal("d", costmodel.Default2005(), nil)

	// Atomic write: no staging debris, object durable.
	if err := Write(l, "a", []byte("aa"), WriteOptions{Atomic: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.ObjectSize(StagingName("a")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("staging object left behind: %v", err)
	}

	// Parent implies the chain rule even without Atomic set.
	err := Write(l, "b", []byte("bb"), WriteOptions{Parent: "missing"})
	if !errors.Is(err, ErrBrokenChain) {
		t.Fatalf("missing parent: err = %v, want ErrBrokenChain", err)
	}
	if err := Write(l, "b", []byte("bb"), WriteOptions{Parent: "a"}); err != nil {
		t.Fatal(err)
	}

	// Unsafe wrapper forces the in-place path regardless of options.
	u := Unsafe(l)
	if err := Write(u, "c", []byte("cc"), WriteOptions{Atomic: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.ObjectSize("c"); err != nil {
		t.Fatalf("unsafe write missing: %v", err)
	}

	if err := Write(nil, "x", nil, WriteOptions{}); err == nil {
		t.Fatal("Write to nil target succeeded")
	}
}

func TestWriteBatchPublishesInOrder(t *testing.T) {
	l := NewLocal("d", costmodel.Default2005(), nil)
	if err := Write(l, "full", []byte("full"), WriteOptions{Atomic: true}); err != nil {
		t.Fatal(err)
	}
	// d1 chains onto the durable full; d2 chains onto d1 *within the
	// batch* — legal because publishes are ordered.
	n, err := WriteBatch(l, []BatchItem{
		{Object: "d1", Parent: "full", Data: []byte("d1")},
		{Object: "d2", Parent: "d1", Data: []byte("d2")},
	}, nil)
	if err != nil || n != 2 {
		t.Fatalf("WriteBatch = (%d, %v), want (2, nil)", n, err)
	}
	for _, o := range []string{"d1", "d2"} {
		if _, serr := l.ObjectSize(o); serr != nil {
			t.Errorf("%s not published: %v", o, serr)
		}
		if _, serr := l.ObjectSize(StagingName(o)); !errors.Is(serr, ErrNotFound) {
			t.Errorf("%s staging debris: %v", o, serr)
		}
	}
}

func TestWriteBatchBrokenChainKeepsPrefix(t *testing.T) {
	l := NewLocal("d", costmodel.Default2005(), nil)
	if err := Write(l, "full", []byte("full"), WriteOptions{Atomic: true}); err != nil {
		t.Fatal(err)
	}
	n, err := WriteBatch(l, []BatchItem{
		{Object: "d1", Parent: "full", Data: []byte("d1")},
		{Object: "d2", Parent: "ghost", Data: []byte("d2")},
		{Object: "d3", Parent: "d2", Data: []byte("d3")},
	}, nil)
	if !errors.Is(err, ErrBrokenChain) || n != 1 {
		t.Fatalf("WriteBatch = (%d, %v), want (1, ErrBrokenChain)", n, err)
	}
	// The valid prefix survives; the failed tail left no debris.
	if _, serr := l.ObjectSize("d1"); serr != nil {
		t.Errorf("published prefix lost: %v", serr)
	}
	for _, o := range []string{"d2", "d3", StagingName("d2"), StagingName("d3")} {
		if _, serr := l.ObjectSize(o); !errors.Is(serr, ErrNotFound) {
			t.Errorf("%s present after failed batch: %v", o, serr)
		}
	}
}

func TestWriteBatchPublishFaultMidBatch(t *testing.T) {
	l := NewLocal("d", costmodel.Default2005(), nil)
	fp := &FaultPolicy{Rng: rand.New(rand.NewSource(7))}
	l.SetFaults(fp)
	if err := Write(l, "full", []byte("full"), WriteOptions{Atomic: true}); err != nil {
		t.Fatal(err)
	}
	fp.PublishFault = 1 // every publish fails from here on
	n, err := WriteBatch(l, []BatchItem{
		{Object: "d1", Parent: "full", Data: []byte("d1")},
		{Object: "d2", Parent: "d1", Data: []byte("d2")},
	}, nil)
	if !errors.Is(err, ErrFault) || n != 0 {
		t.Fatalf("WriteBatch = (%d, %v), want (0, ErrFault)", n, err)
	}
	// All-or-nothing per item: nothing published, staging reclaimed.
	for _, o := range []string{"d1", "d2", StagingName("d1"), StagingName("d2")} {
		if _, serr := l.ObjectSize(o); !errors.Is(serr, ErrNotFound) {
			t.Errorf("%s present after publish fault: %v", o, serr)
		}
	}
	if fp.PublishFails == 0 {
		t.Errorf("no publish fault recorded")
	}
}
