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
	// is shared with the store as ReadObject's is: do not modify it.
	ReadBatch(objects []string, env *Env) ([][]byte, error)
}
