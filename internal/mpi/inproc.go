package mpi

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// inprocJob is the shared state of an in-process job: one mailbox per
// rank, each guarded by its own lock/condition.
type inprocJob struct {
	n     int
	start time.Time
	boxes []*mailbox
}

type mailbox struct {
	mu   sync.Mutex
	cond *sync.Cond
	msgs []Message
	// lost maps a peer whose connection failed to the read error: no
	// message from it will arrive beyond those already queued.
	lost map[int]error
}

func newMailbox() *mailbox {
	b := &mailbox{}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// match returns the index of the first message matching from/tag, or -1.
func matchIdx(msgs []Message, from, tag int) int {
	for i, m := range msgs {
		if (from == Any || m.From == from) && (tag == Any || m.Tag == tag) {
			return i
		}
	}
	return -1
}

func (b *mailbox) put(m Message) {
	b.mu.Lock()
	b.msgs = append(b.msgs, m)
	b.cond.Broadcast()
	b.mu.Unlock()
}

// lose records that nothing more will arrive from peer.
func (b *mailbox) lose(peer int, err error) {
	b.mu.Lock()
	if b.lost == nil {
		b.lost = make(map[int]error)
	}
	b.lost[peer] = err
	b.cond.Broadcast()
	b.mu.Unlock()
}

func (b *mailbox) take(from, tag int) Message {
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		for _, m := range b.msgs {
			if m.Tag == abortTag {
				// A peer rank panicked or the job was cancelled;
				// propagate so this rank unwinds too instead of
				// blocking forever.
				if m.From == Any {
					panic(fmt.Sprintf("mpi: job cancelled: %v", m.Data))
				}
				panic(fmt.Sprintf("mpi: job aborted by rank %d: %v", m.From, m.Data))
			}
		}
		if i := matchIdx(b.msgs, from, tag); i >= 0 {
			m := b.msgs[i]
			b.msgs = append(b.msgs[:i], b.msgs[i+1:]...)
			return m
		}
		// Nothing queued matches. A lost peer that could have sent it
		// never will: fail rather than wait forever. Only such a receive
		// fails, because peers also drop off as each leaves a finished
		// job, and a rank may still be waiting on another peer then.
		for peer, err := range b.lost {
			if from == Any || from == peer {
				panic(fmt.Sprintf("mpi: connection to rank %d lost: %v", peer, err))
			}
		}
		b.cond.Wait()
	}
}

type inprocTransport struct {
	job *inprocJob
	r   int
}

func (t *inprocTransport) rank() int    { return t.r }
func (t *inprocTransport) size() int    { return t.job.n }
func (t *inprocTransport) name() string { return "inproc" }
func (t *inprocTransport) send(to, tag int, data any) int {
	t.job.boxes[to].put(Message{From: t.r, Tag: tag, Data: data})
	return payloadBytes(data)
}
func (t *inprocTransport) recv(from, tag int) Message {
	return t.job.boxes[t.r].take(from, tag)
}
func (t *inprocTransport) advance(float64) {}
func (t *inprocTransport) time() float64 {
	return time.Since(t.job.start).Seconds()
}

// Run is RunContext without cancellation.
func Run(p int, f func(c *Comm)) error {
	return RunContext(context.Background(), p, f)
}

// RunContext executes f on p ranks as goroutines connected by in-memory
// mailboxes, blocking until all ranks return. A panic in any rank is
// recovered and reported as an error, and it poisons every mailbox, so
// a rank blocked in a receive (or entering one later) panics in turn
// instead of waiting forever for the failed rank; the first error is
// returned once every rank has unwound. When ctx is done before the job
// ends, the same poison is posted on its behalf: ranks may then leave
// the job at different points, since whichever peer still waits on them
// unwinds too.
func RunContext(ctx context.Context, p int, f func(c *Comm)) error {
	if p < 1 {
		return fmt.Errorf("mpi: need at least 1 rank, got %d", p)
	}
	job := &inprocJob{n: p, start: time.Now(), boxes: make([]*mailbox, p)}
	for i := range job.boxes {
		job.boxes[i] = newMailbox()
	}
	poison := func(from int, cause any) {
		for _, b := range job.boxes {
			b.put(Message{From: from, Tag: abortTag, Data: cause})
		}
	}
	posted := make(chan struct{})
	stop := context.AfterFunc(ctx, func() {
		defer close(posted)
		poison(Any, context.Cause(ctx))
	})
	errs := make(chan error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer func() {
				if e := recover(); e != nil {
					errs <- fmt.Errorf("mpi: rank %d panicked: %v", r, e)
					poison(r, e)
				}
			}()
			f(&Comm{tr: &inprocTransport{job: job, r: r}})
		}(r)
	}
	wg.Wait()
	if !stop() {
		<-posted // the cancellation fired: let its poster finish
	}
	close(errs)
	return <-errs // nil if empty
}

// abortTag poisons mailboxes after a rank panic or a cancellation. It
// lives in the collective band but below any tag a realistic job would
// reach.
const abortTag = -1 << 30
