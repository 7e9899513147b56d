package storage

// BatchReader is implemented by targets that can serve several objects
// in one scheduled pass. A chain restore that already holds the full
// object list (the supervisor's chain manifest) pays one positioning
// cost plus the streams, instead of one independent seek per link — the
// read-side half of making recovery as fast as capture. Checkpoint
// objects of one job are appended in capture order, so a store serving
// the whole list in a single pass is the physically honest model, not
// an optimistic one.
type BatchReader interface {
	// ReadBatch returns the objects' contents in input order. Any
	// missing object fails the whole batch — a chain with a hole is not
	// restorable, so there is no partial success to report. Each slice
	// is shared with the store as ReadObject's is: do not modify it. A
	// target that stores an object in pieces joins them into a fresh
	// slice here; PieceReader serves the same bytes without the join.
	ReadBatch(objects []string, env *Env) ([][]byte, error)
}

// PieceReader is implemented by targets that hold an object in pieces
// and can serve it without joining them: an erasure set returns each
// object as its data planes, of which only a plane that had to be
// solved is fresh memory. The read is otherwise ReadBatch's: the same
// member reads, simulated waits and counters, and the same errors.
type PieceReader interface {
	// ReadPieces returns the objects' contents in input order, each as
	// pieces whose concatenation is what ReadObject returns. Any missing
	// object fails the whole batch. A piece may be a slice of the
	// store's own bytes, under ReadObject's contract: do not modify it.
	ReadPieces(objects []string, env *Env) ([][][]byte, error)
}
