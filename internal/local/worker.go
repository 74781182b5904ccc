package local

import (
	"fmt"
	"time"
)

// slot marks one written inbox cell (shard-local entity index + port) for
// sparse clearing: a buffer's stale cells are exactly the ones written in
// its previous use, so a round costs O(active entities + messages) rather
// than O(total ports) — essential for long, sparse schedules such as the
// one-class-per-round greedy phases.
type slot struct {
	ent  int32
	port int32
}

// delivery is one message batched for handoff to another shard: the
// destination entity, the destination port, and the payload.
type delivery struct {
	to   int32
	port int32
	msg  Message
}

// outbox is the double-buffered cross-shard mail of one source shard:
// buf[par][dst] is the batch of messages this shard produced for
// destination shard dst in rounds of parity par.
//
// A buffer of parity p written in round r is read by the destination worker
// after the send barrier and reused (truncated, capacity retained) in round
// r+2, so steady-state rounds allocate nothing. Strictly, the round
// structure would admit a single buffer — the barrier at the end of every
// round already separates the last read of round r from the reset in round
// r+1 — but the parity scheme keeps the mailbox's safety independent of
// that barrier: it only relies on the send barrier.
type outbox struct {
	buf [2][][]delivery
}

func newOutbox(shards int) outbox {
	var ob outbox
	ob.buf[0] = make([][]delivery, shards)
	ob.buf[1] = make([][]delivery, shards)
	return ob
}

// reset truncates the parity-par batches for reuse, keeping capacity.
func (ob *outbox) reset(par int) {
	for d := range ob.buf[par] {
		ob.buf[par][d] = ob.buf[par][d][:0]
	}
}

// put appends one message to the parity-par batch for shard dst.
//
//distec:hotpath
func (ob *outbox) put(par int, dst int32, d delivery) {
	ob.buf[par][dst] = append(ob.buf[par][dst], d)
}

// batch returns the parity-par batch destined for shard dst.
func (ob *outbox) batch(par int, dst int) []delivery {
	return ob.buf[par][dst]
}

// worker owns one contiguous block of entities: their protocol state, their
// double-buffered inboxes, and the outbox batches they produce. A worker's
// fields are only mutated by the phase task of its own shard; cross-shard
// data flows only through outbox batches read strictly after a barrier.
type worker struct {
	id     int
	lo, hi int // owned entity range [lo, hi)

	procs    []Protocol
	sparse   []SparseReceiver
	sleepers []Sleeper

	active  []int32 // still-active owned entities, ascending
	wake    []int   // shard-local: round before which the entity sleeps
	gotMsg  []int32 // shard-local: deliveries this round
	inbox   [2][][]Message
	touched [2][]slot
	out     outbox

	sent int64

	// Per-round trace counters: receivePhase records the entities that had
	// a delivery and the entities that halted, and a traced Exec times the
	// shard's two phases into rBusy.
	rReceived int
	rHalted   int
	rBusy     time.Duration
}

func newWorker(id, lo, hi, shards int, t *Topology, f Factory) *worker {
	n := hi - lo
	w := &worker{
		id:       id,
		lo:       lo,
		hi:       hi,
		procs:    make([]Protocol, n),
		sparse:   make([]SparseReceiver, n),
		sleepers: make([]Sleeper, n),
		active:   make([]int32, n),
		wake:     make([]int, n),
		gotMsg:   make([]int32, n),
		out:      newOutbox(shards),
	}
	w.inbox[0] = make([][]Message, n)
	w.inbox[1] = make([][]Message, n)
	for li := 0; li < n; li++ {
		i := lo + li
		w.procs[li] = f(t.ViewOf(i))
		if sr, ok := w.procs[li].(SparseReceiver); ok {
			w.sparse[li] = sr
		}
		if sl, ok := w.procs[li].(Sleeper); ok {
			w.sleepers[li] = sl
		}
		deg := len(t.Ports[i])
		w.inbox[0][li] = make([]Message, deg)
		w.inbox[1][li] = make([]Message, deg)
		w.active[li] = int32(i)
	}
	return w
}

// sendPhase runs Send for every awake owned entity. It first clears the
// parity-par inbox cells written in the buffer's previous use (round r−2)
// and last round's delivery counters; then a message to an owned entity is
// written straight into its parity-par inbox, and any other message is
// batched into the parity-par outbox for the destination's shard (shardOf
// is nil when there is only one). It stops at the first entity whose
// outbox has the wrong length and returns that error.
//
//distec:hotpath
func (w *worker) sendPhase(r, par int, t *Topology, shardOf []int32) error {
	for _, s := range w.touched[1-par] {
		w.gotMsg[s.ent] = 0
	}
	inbox := w.inbox[par]
	tb := w.touched[par]
	for _, s := range tb {
		inbox[s.ent][s.port] = nil
	}
	tb = tb[:0]
	w.out.reset(par)
	lo, hi := int32(w.lo), int32(w.hi)
	for _, i32 := range w.active {
		i := int(i32)
		if w.wake[i-w.lo] > r {
			continue
		}
		out := w.procs[i-w.lo].Send(r)
		if out == nil {
			continue
		}
		ports, back := t.Ports[i], t.Back[i]
		if len(out) != len(ports) {
			w.touched[par] = tb
			return fmt.Errorf("local: entity %d sent %d messages, has %d ports", i, len(out), len(ports))
		}
		for p, msg := range out {
			if msg == nil {
				continue
			}
			if j := ports[p]; lo <= j && j < hi {
				lj := j - lo
				inbox[lj][back[p]] = msg
				w.gotMsg[lj]++
				tb = append(tb, slot{ent: lj, port: back[p]})
			} else {
				w.out.put(par, shardOf[j], delivery{to: j, port: back[p], msg: msg})
			}
			w.sent++
		}
	}
	w.touched[par] = tb
	return nil
}

// deliverPhase drains the parity-par batches addressed to this shard from
// every source worker into the owned entities' parity-par inboxes.
//
//distec:hotpath
func (w *worker) deliverPhase(par int, workers []*worker) {
	inbox := w.inbox[par]
	tb := w.touched[par]
	for _, src := range workers {
		for _, d := range src.out.batch(par, w.id) {
			li := d.to - int32(w.lo)
			inbox[li][d.port] = d.msg
			w.gotMsg[li]++
			tb = append(tb, slot{ent: li, port: d.port})
		}
	}
	w.touched[par] = tb
}

// receivePhase runs Receive/ReceiveNone for the owned entities and compacts
// the active list, preserving ascending order. A sleeping entity with no
// delivery is skipped by the Sleeper contract; an awake one with no
// delivery takes the SparseReceiver fast path when it has one.
//
//distec:hotpath
func (w *worker) receivePhase(r, par int) {
	keep := w.active[:0]
	received := 0
	before := len(w.active)
	for _, i32 := range w.active {
		li := int(i32) - w.lo
		got := w.gotMsg[li]
		if w.wake[li] > r && got == 0 {
			keep = append(keep, i32)
			continue
		}
		if got != 0 {
			received++
		}
		var done bool
		if got == 0 && w.sparse[li] != nil {
			done = w.sparse[li].ReceiveNone(r)
			if !done && w.sleepers[li] != nil {
				w.wake[li] = w.sleepers[li].NextWake(r)
			}
		} else {
			done = w.procs[li].Receive(r, w.inbox[par][li])
			w.wake[li] = 0
		}
		if !done {
			keep = append(keep, i32)
		}
	}
	w.active = keep
	w.rReceived, w.rHalted = received, before-len(keep)
}
