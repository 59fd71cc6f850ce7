// Package mpi is a small message-passing runtime with an MPI-like API,
// standing in for the MPI + BlueGene/L substrate of the paper.
//
// Algorithms are written once against *Comm and run unchanged on three
// transports:
//
//   - inproc: ranks are goroutines exchanging messages through in-memory
//     mailboxes. Real concurrent execution, wall-clock Time.
//   - simtime: a deterministic discrete-event simulation of a
//     distributed-memory machine. Compute is charged explicitly via
//     Advance (the caller reports machine-independent work such as DP
//     cells or tree characters) and each message costs
//     overhead + bytes/bandwidth + latency on the virtual clock. This is
//     how the repository reproduces 32–512-node scaling curves on a
//     single-CPU host.
//   - tcp: ranks are OS processes (or test goroutines) exchanging
//     gob-encoded messages over TCP sockets — the "custom RPC" route for
//     genuinely distributed runs.
//
// Fatal transport errors surface as panics inside rank code; the Run
// harnesses recover them and return an error, mirroring MPI's abort
// semantics without threading error returns through every algorithm.
// RunContext posts the same abort when its context is done, so a
// cancelled job unwinds every rank blocked in a receive at once.
package mpi

import (
	"fmt"

	"profam/internal/metrics"
	"profam/internal/trace"
)

// Any is the wildcard value for Recv's from and tag arguments.
const Any = -1

// Message is a received message.
type Message struct {
	From int
	Tag  int
	Data any

	// wire is the measured on-the-wire size in bytes when the transport
	// knows it (TCP counts the actual encoded stream); 0 means unknown
	// and the estimate from payloadBytes is used for accounting.
	wire int
}

// Sized lets a payload report its approximate wire size in bytes, which
// the simtime transport charges against bandwidth. Payloads that do not
// implement Sized are charged DefaultMsgBytes.
type Sized interface {
	WireSize() int
}

// DefaultMsgBytes is the assumed size of payloads that do not implement
// Sized.
const DefaultMsgBytes = 64

func payloadBytes(data any) int {
	if s, ok := data.(Sized); ok {
		return s.WireSize()
	}
	switch v := data.(type) {
	case nil:
		return 8
	case []byte:
		return len(v) + 8
	case string:
		return len(v) + 8
	case []int32:
		return 4*len(v) + 8
	case []int64:
		return 8*len(v) + 8
	case []uint64:
		return 8*len(v) + 8
	case []float64:
		return 8*len(v) + 8
	case int, int32, int64, uint64, float64, bool:
		return 8
	default:
		return DefaultMsgBytes
	}
}

// transport is the per-rank endpoint each Comm delegates to.
type transport interface {
	rank() int
	size() int
	name() string // transport label for metrics: inproc, sim, tcp
	// send delivers data and returns the number of bytes accounted to
	// the wire: the measured encoded size on TCP, the payloadBytes
	// estimate on the in-memory transports.
	send(to, tag int, data any) int
	recv(from, tag int) Message
	advance(seconds float64)
	time() float64
}

// Comm is a communicator bound to one rank of a p-rank job.
// It is used by exactly one goroutine at a time.
type Comm struct {
	tr      transport
	collSeq int

	// Optional metric handles attached with AttachMetrics; nil-safe.
	msgsSent, bytesSent *metrics.Counter
	msgsRecv, bytesRecv *metrics.Counter

	// Optional event tracer attached with AttachTracer; nil disables.
	tracer *trace.Tracer
}

// AttachMetrics routes this rank's communication volume — messages and
// bytes sent and received, labeled by transport — into reg. Pass the
// registry built on this rank's clock; attaching nil detaches.
func (c *Comm) AttachMetrics(reg *metrics.Registry) {
	tn := c.tr.name()
	c.msgsSent = reg.Counter(metrics.Name("mpi_msgs_sent", "transport", tn))
	c.bytesSent = reg.Counter(metrics.Name("mpi_bytes_sent", "transport", tn))
	c.msgsRecv = reg.Counter(metrics.Name("mpi_msgs_recv", "transport", tn))
	c.bytesRecv = reg.Counter(metrics.Name("mpi_bytes_recv", "transport", tn))
}

// AttachTracer routes this rank's message events — a send instant and a
// recv-wait span per message, carrying peer and byte count — into tr,
// which must be clocked by this rank's Time. Point-to-point traffic and
// collective internals alike pass through; attaching nil detaches.
func (c *Comm) AttachTracer(tr *trace.Tracer) { c.tracer = tr }

// send/recv wrap the transport with volume accounting; every Comm path
// (point-to-point and collectives) goes through them.
func (c *Comm) send(to, tag int, data any) {
	nb := int64(c.tr.send(to, tag, data))
	c.msgsSent.Inc()
	c.bytesSent.Add(nb)
	if c.tracer != nil {
		c.tracer.Instant(trace.CatComm, "send", "to", int64(to), "bytes", nb)
	}
}

func (c *Comm) recv(from, tag int) Message {
	var t0 float64
	if c.tracer != nil {
		t0 = c.tr.time()
	}
	m := c.tr.recv(from, tag)
	nb := int64(m.wire)
	if nb == 0 {
		nb = int64(payloadBytes(m.Data))
	}
	c.msgsRecv.Inc()
	c.bytesRecv.Add(nb)
	if c.tracer != nil {
		// The span covers the blocked-in-recv wait; under simtime the
		// virtual clock only moves while parked, so dur is the stall.
		c.tracer.Span(trace.CatComm, "recv", t0, c.tr.time(), "from", int64(m.From), "bytes", nb)
	}
	return m
}

// Rank returns this endpoint's rank in [0, Size).
func (c *Comm) Rank() int { return c.tr.rank() }

// Size returns the number of ranks in the job.
func (c *Comm) Size() int { return c.tr.size() }

// Send delivers data to rank `to` with the given tag (tag must be ≥ 0 for
// user messages). Ownership of reference payloads transfers to the
// receiver; the sender must not mutate them afterwards.
func (c *Comm) Send(to, tag int, data any) {
	if to < 0 || to >= c.Size() {
		panic(fmt.Sprintf("mpi: Send to invalid rank %d (size %d)", to, c.Size()))
	}
	if tag < 0 {
		panic(fmt.Sprintf("mpi: user tags must be >= 0, got %d", tag))
	}
	c.send(to, tag, data)
}

// Recv blocks until a message matching from and tag (either may be Any)
// is available and returns it. Matching is FIFO per sender.
func (c *Comm) Recv(from, tag int) Message {
	return c.recv(from, tag)
}

// RecvAny blocks until the next message carrying tag arrives from any
// sender and returns it, serving strictly in arrival order:
//
//   - inproc/tcp: ranks share one merged delivery queue per receiver, so
//     the match is the oldest queued message with the tag, regardless of
//     sender — first to land is first served.
//   - simtime: the match is the message with the earliest virtual arrival
//     timestamp, with deterministic (sender rank, send sequence)
//     tie-breaking, so event-driven protocols replay identically.
//
// It is the building block for arrival-order master loops that service
// whichever worker is ready instead of polling ranks in order.
func (c *Comm) RecvAny(tag int) Message {
	return c.recv(Any, tag)
}

// Advance charges seconds of compute time to this rank's clock. It is a
// no-op on wall-clock transports; under simtime it is the only way
// compute becomes visible to the virtual clock.
func (c *Comm) Advance(seconds float64) { c.tr.advance(seconds) }

// Time returns the rank's current time: wall-clock seconds since job
// start for real transports, the virtual clock under simtime.
func (c *Comm) Time() float64 { return c.tr.time() }

// --- Collectives -----------------------------------------------------
//
// Collectives must be called by every rank in the same order. Each call
// consumes one tag from the reserved negative band, derived from a
// per-communicator sequence number so different collectives never
// cross-talk.

func (c *Comm) nextCollTag() int {
	c.collSeq++
	return -1 - c.collSeq // start at -2: -1 is the Any wildcard
}

// Barrier blocks until every rank has entered the barrier.
func (c *Comm) Barrier() {
	tag := c.nextCollTag()
	root := 0
	if c.Rank() == root {
		for i := 1; i < c.Size(); i++ {
			c.recv(Any, tag)
		}
		for i := 1; i < c.Size(); i++ {
			c.send(i, tag, nil)
		}
	} else {
		c.send(root, tag, nil)
		c.recv(root, tag)
	}
}

// Bcast distributes root's data to every rank; every rank returns it.
// Non-root callers pass nil (their argument is ignored).
func (c *Comm) Bcast(root int, data any) any {
	tag := c.nextCollTag()
	if c.Rank() == root {
		for i := 0; i < c.Size(); i++ {
			if i != root {
				c.send(i, tag, data)
			}
		}
		return data
	}
	return c.recv(root, tag).Data
}

// Gather collects each rank's data at root, indexed by rank. Non-root
// callers receive nil.
func (c *Comm) Gather(root int, data any) []any {
	tag := c.nextCollTag()
	if c.Rank() == root {
		out := make([]any, c.Size())
		out[root] = data
		for i := 1; i < c.Size(); i++ {
			m := c.recv(Any, tag)
			out[m.From] = m.Data
		}
		return out
	}
	c.send(root, tag, data)
	return nil
}
