package detector

// table is per-node detector state over a contiguous node-id range: a
// slice indexed by id-lo, with a presence flag per slot so it keeps the
// semantics of the map it replaces (an id never stored reads as the
// zero value and absent). Node ids in this system are dense — a
// cluster's nodes are 0..N-1 and a fleet shard's members are
// [base, base+n) — so a lookup is an index, not a hash. The table
// sizes itself from the ids it is given, growing on demand in either
// direction (including below the first id it saw) with doubling
// headroom, so no caller has to declare the range up front.
type table[T any] struct {
	lo    int
	slots []entry[T]
}

// entry is one table slot: the value and whether it was ever stored.
type entry[T any] struct {
	v  T
	ok bool
}

// find returns id's slot, or nil when id lies outside the covered
// range (and so is absent). It never grows the table.
func (t *table[T]) find(id int) *entry[T] {
	if i := id - t.lo; i >= 0 && i < len(t.slots) {
		return &t.slots[i]
	}
	return nil
}

// get returns id's value and whether it is present.
func (t *table[T]) get(id int) (T, bool) {
	if e := t.find(id); e != nil {
		return e.v, e.ok
	}
	var zero T
	return zero, false
}

// at returns id's slot, growing the table to cover it. The pointer is
// valid until the next call that grows the table.
func (t *table[T]) at(id int) *entry[T] {
	if e := t.find(id); e != nil {
		return e
	}
	return &t.slots[t.grow(id)]
}

// grow extends the covered range to include id and returns its index.
func (t *table[T]) grow(id int) int {
	if len(t.slots) == 0 {
		t.lo = id
	}
	hi := t.lo + len(t.slots)
	if id >= hi {
		t.slots = append(t.slots, make([]entry[T], id+1-hi)...)
		return id - t.lo
	}
	// Below lo: reallocate with at least as much headroom below as the
	// table already covers, so a descending id stream grows in O(log n)
	// copies.
	n := max(hi-id, 2*len(t.slots))
	lo := hi - n
	slots := make([]entry[T], n)
	copy(slots[t.lo-lo:], t.slots)
	t.lo, t.slots = lo, slots
	return id - lo
}
