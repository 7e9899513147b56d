// The pipelined shipping path. A synchronous round holds itself open
// until its image is durable on the server: capture, encode, ship,
// publish, ack, all inside one pump. Pipelining splits that round at its
// natural seam — the image is immutable the instant capture completes —
// so the agent captures epoch N+1 while epoch N is still on the wire.
// The round itself is pump's, shared with the synchronous path; it
// captures with no target and hands the image to enqueueShip. A bounded
// in-flight queue provides the backpressure (a slow server stalls
// capture rounds instead of buffering unboundedly), and small deltas
// waiting behind the same transfer merge into one batched publish that
// pays the per-message and per-publish overhead once.
//
// Everything the durable path guarantees survives the split, because the
// final hop is the same storage.Write/WriteBatch the synchronous path
// uses, and each published image goes through the same landed step:
// publishes stage-then-commit atomically, a delta names its parent and
// bounces (ErrBrokenChain) if the parent is not durable, fenced targets
// reject stale epochs, and EvAck is emitted only after the publish
// returns. What changes is only *when* the job pays: transfer time is
// modeled on the cluster clock between pumps instead of inside the
// capture round.

package cluster

import (
	"errors"
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/costmodel"
	"repro/internal/mechanism"
	"repro/internal/simtime"
	"repro/internal/storage"
)

// PipelineConfig tunes the pipelined shipping path; Supervisor.Pipeline
// non-nil turns it on. The zero value of each field means its default.
type PipelineConfig struct {
	// MaxInFlight bounds the ship queue (transferring + waiting units).
	// A capture round that finds the queue full is skipped and counted
	// under pipe.stalls. Default 2: one unit on the wire, one queued.
	MaxInFlight int
	// CaptureWorkers is the sharded-capture pool width used for both the
	// payload read and the agent-side encode (see checkpoint.Request
	// .Parallelism). Default 4. The default is a fixed constant, never
	// the host's core count, so simulated results are machine-independent.
	CaptureWorkers int
}

// shipBatchBytes bounds a batched publish: a delta merges into the
// queue's tail unit when neither has started transferring and their
// combined payload stays within it, so consecutive small deltas publish
// as one batch. Full images never batch — each is its own recovery
// anchor.
const shipBatchBytes = 1 << 20

func (c *PipelineConfig) validate() error {
	switch {
	case c.MaxInFlight < 0:
		return fmt.Errorf("cluster: PipelineConfig: negative MaxInFlight %d", c.MaxInFlight)
	case c.CaptureWorkers < 0:
		return fmt.Errorf("cluster: PipelineConfig: negative CaptureWorkers %d", c.CaptureWorkers)
	}
	return nil
}

func (c *PipelineConfig) maxInFlight() int {
	if c.MaxInFlight > 0 {
		return c.MaxInFlight
	}
	return 2
}

func (c *PipelineConfig) captureWorkers() int {
	if c.CaptureWorkers > 0 {
		return c.CaptureWorkers
	}
	return 4
}

// shipImage is one encoded checkpoint image queued for shipping.
type shipImage struct {
	obj    string
	parent string // durable-parent requirement carried to storage.Write
	data   []byte
	full   bool
	// capturedAt/captureDur feed the publish-latency histogram and the
	// adaptive-interval policy once the image finally acks.
	capturedAt simtime.Time
	captureDur simtime.Duration
}

// shipUnit is one transfer on the wire: a single image, or a batch of
// small deltas that publish together. Units move strictly FIFO — a
// delta's parent is always ahead of it (or already durable).
type shipUnit struct {
	imgs    []shipImage
	started bool
	doneAt  simtime.Time // transfer completion, set when it reaches the wire
}

func (u *shipUnit) bytes() int {
	n := 0
	for i := range u.imgs {
		n += len(u.imgs[i].data)
	}
	return n
}

func (u *shipUnit) hasFull() bool {
	for i := range u.imgs {
		if u.imgs[i].full {
			return true
		}
	}
	return false
}

// shipCost is the simulated wire-plus-spindle time for one transfer: a
// batch moves as one message, which is exactly where batching's savings
// come from (one per-message overhead, one publish barrier).
func shipCost(cm *costmodel.Model, n int) simtime.Duration {
	return cm.NetTransfer(n) + cm.DiskStream(n)
}

// dropShip discards every queued image, counting them under
// pipe.dropped.
func (a *ckptAgent) dropShip() {
	n := 0
	for _, u := range a.ship {
		n += len(u.imgs)
	}
	if n > 0 {
		a.s.Counters().Inc("pipe.dropped", int64(n))
	}
	a.ship = nil
}

// enqueueShip is the pipelined end of a capture round: encode the
// captured image on the node and queue it for shipping, merging it into
// the tail unit when the batching rule allows. No storage I/O happens
// here — that is advanceShip's job on later pumps.
func (a *ckptAgent) enqueueShip(n *Node, tk *mechanism.Ticket, full bool) {
	workers := a.s.Pipeline.captureWorkers()
	data, err := tk.Img.EncodeParallelBytes(workers)
	if err != nil {
		a.s.Counters().Inc("agent.ckpt_failed", 1)
		return
	}
	n.K.Charge(checkpoint.EncodeCost(len(data), workers), "encode")
	si := shipImage{
		obj:        tk.Img.ObjectName(),
		parent:     tk.Img.Parent,
		data:       data,
		full:       full,
		capturedAt: a.s.C.Now(),
		captureDur: tk.Total(),
	}
	if len(a.ship) > 0 && !full {
		u := a.ship[len(a.ship)-1]
		if !u.started && !u.hasFull() && u.bytes()+len(data) <= shipBatchBytes {
			u.imgs = append(u.imgs, si)
			a.s.Counters().Inc("pipe.batched", 1)
			return
		}
	}
	a.ship = append(a.ship, &shipUnit{imgs: []shipImage{si}})
}

// advanceShip is the transfer half of a pipelined pump: start the head
// unit's transfer if idle, and when the cluster clock has passed its
// completion, publish and ack. One unit transfers at a time — the node
// has one NIC.
func (a *ckptAgent) advanceShip(n *Node) {
	c := a.s.C
	for len(a.ship) > 0 {
		u := a.ship[0]
		if !u.started {
			u.started = true
			u.doneAt = c.Now().Add(shipCost(c.CM, u.bytes()))
		}
		if c.Now() < u.doneAt {
			return
		}
		if !a.publishUnit(n, u) {
			return // failure path already emptied or stopped the queue
		}
		a.ship = a.ship[1:]
	}
}

// publishUnit commits one transferred unit to the server through the
// agent's fenced target and acks what landed. Returns false when the
// queue must stop draining (fence suicide or a dropped chain).
func (a *ckptAgent) publishUnit(n *Node, u *shipUnit) bool {
	s := a.s
	tgt, local := s.shipTarget(a, false)
	var published int
	var err error
	if len(u.imgs) == 1 {
		si := &u.imgs[0]
		err = storage.Write(tgt, si.obj, si.data, storage.WriteOptions{Atomic: true, Parent: si.parent})
		if err == nil {
			published = 1
		}
	} else {
		items := make([]storage.BatchItem, len(u.imgs))
		for i := range u.imgs {
			items[i] = storage.BatchItem{Object: u.imgs[i].obj, Parent: u.imgs[i].parent, Data: u.imgs[i].data}
		}
		published, err = storage.WriteBatch(tgt, items, nil)
	}
	now := s.C.Now()
	for i := range u.imgs[:published] {
		si := &u.imgs[i]
		s.Counters().Inc("pipe.shipped", 1)
		s.Metrics.Hist("pipe.publish_latency").Observe(float64(now.Sub(si.capturedAt)))
		a.landed(tgt, local, si.obj, si.full, len(si.data), si.captureDur)
	}
	if err == nil {
		return true
	}
	// What did not land leaves the queue either way. Trim the acked
	// prefix out of this unit first, or those images would be counted
	// both shipped and dropped.
	u.imgs = u.imgs[published:]
	if errors.Is(err, storage.ErrFenced) {
		// Another incarnation owns the job: self-fence, exactly as a
		// synchronous publish would; stop() drops the queue.
		p, _ := n.K.Procs.Lookup(a.pid)
		a.selfFence(n, p)
		return false
	}
	// Outage, injected fault, or a broken chain. Every queued image
	// chains (directly or transitively) onto the one that failed, so none
	// of them can ever satisfy the durable-parent rule: drop them all and
	// make the next capture a full image that re-anchors the chain.
	s.Counters().Inc("agent.ship_failed", 1)
	a.dropShip()
	a.chain.ForceRebase()
	return false
}
