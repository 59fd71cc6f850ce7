package mpi

import (
	"fmt"
	"math"
	"sync"
)

// CostModel parameterises the virtual machine's communication costs, in
// the style of the LogP model: a fixed per-message send overhead, a
// per-byte bandwidth term, a network latency added to the arrival time,
// and a fixed receive overhead.
type CostModel struct {
	SendOverhead float64 // seconds charged to the sender per message (o_s)
	RecvOverhead float64 // seconds charged to the receiver per message (o_r)
	Latency      float64 // seconds of network transit (L)
	SecPerByte   float64 // inverse bandwidth (1/G)

	// RankLatency, when non-nil, replaces Latency per (from, to) link.
	// It models heterogeneous networks — e.g. adversarially permuted
	// per-rank delays when testing that results are independent of
	// message arrival order.
	RankLatency func(from, to int) float64
}

// latency returns the transit time for a message from rank `from` to
// rank `to`.
func (cm CostModel) latency(from, to int) float64 {
	if cm.RankLatency != nil {
		return cm.RankLatency(from, to)
	}
	return cm.Latency
}

// BlueGeneLike returns a cost model loosely shaped on a 2008-era
// BlueGene/L torus: several-microsecond message overheads, ~175 MB/s
// per-link bandwidth. Only the ratios matter for curve shapes.
func BlueGeneLike() CostModel {
	return CostModel{
		SendOverhead: 3e-6,
		RecvOverhead: 3e-6,
		Latency:      4e-6,
		SecPerByte:   1.0 / 175e6,
	}
}

const (
	simRunning = iota
	simParked
	simDone
)

type simMsg struct {
	Message
	arrival float64
	seq     uint64 // per-sender sequence, for deterministic tie-breaks
}

// simJob is the discrete-event scheduler shared by all ranks.
//
// Invariant: effects (message receipt) are executed in nondecreasing
// virtual-time order. A parked rank may complete its Recv only when no
// rank is running (so every already-caused send has been delivered) and
// it holds the globally smallest event time among grantable ranks.
//
// Scheduling is centralized in dispatch(), which runs whenever the
// last running rank parks or finishes and wakes exactly one rank (the
// one with the minimum event time) through its private condition
// variable — avoiding the O(p²) thundering herd of a shared broadcast.
type simJob struct {
	mu sync.Mutex
	cm CostModel

	n        int
	clock    []float64
	state    []int
	wantFrom []int
	wantTag  []int
	granted  []bool
	conds    []*sync.Cond
	boxes    [][]simMsg
	sendSeq  []uint64
	running  int
	done     int
	aborted  error
}

func newSimJob(p int, cm CostModel) *simJob {
	j := &simJob{
		cm:       cm,
		n:        p,
		clock:    make([]float64, p),
		state:    make([]int, p),
		wantFrom: make([]int, p),
		wantTag:  make([]int, p),
		granted:  make([]bool, p),
		conds:    make([]*sync.Cond, p),
		boxes:    make([][]simMsg, p),
		sendSeq:  make([]uint64, p),
		running:  p,
	}
	for r := range j.conds {
		j.conds[r] = sync.NewCond(&j.mu)
	}
	return j
}

// bestMatch returns the index of the matching message with the smallest
// (arrival, from, seq) key, or -1.
func (j *simJob) bestMatch(r int) int {
	from, tag := j.wantFrom[r], j.wantTag[r]
	best := -1
	for i, m := range j.boxes[r] {
		if (from != Any && m.From != from) || (tag != Any && m.Tag != tag) {
			continue
		}
		if best < 0 {
			best = i
			continue
		}
		b := j.boxes[r][best]
		if m.arrival < b.arrival ||
			(m.arrival == b.arrival && (m.From < b.From ||
				(m.From == b.From && m.seq < b.seq))) {
			best = i
		}
	}
	return best
}

// eventTime returns rank r's grant time and whether r has a matching
// message.
func (j *simJob) eventTime(r int) (float64, bool) {
	i := j.bestMatch(r)
	if i < 0 {
		return 0, false
	}
	return math.Max(j.clock[r], j.boxes[r][i].arrival), true
}

// dispatch grants the parked rank with the minimum event time, when no
// rank is running. Must be called with j.mu held.
func (j *simJob) dispatch() {
	if j.running > 0 || j.aborted != nil {
		return
	}
	best := -1
	var bestT float64
	anyParked := false
	for r := 0; r < j.n; r++ {
		if j.state[r] != simParked || j.granted[r] {
			continue
		}
		anyParked = true
		t, ok := j.eventTime(r)
		if !ok {
			continue
		}
		if best < 0 || t < bestT {
			best, bestT = r, t
		}
	}
	if best >= 0 {
		j.granted[best] = true
		j.conds[best].Signal()
		return
	}
	if anyParked && j.done < j.n {
		j.aborted = fmt.Errorf("mpi: simtime deadlock: all ranks blocked in Recv with no matching messages")
		j.wakeAll()
	}
}

func (j *simJob) wakeAll() {
	for _, c := range j.conds {
		c.Signal()
	}
}

type simTransport struct {
	job *simJob
	r   int
}

func (t *simTransport) rank() int    { return t.r }
func (t *simTransport) size() int    { return t.job.n }
func (t *simTransport) name() string { return "sim" }

func (t *simTransport) advance(seconds float64) {
	if seconds < 0 {
		panic("mpi: Advance with negative seconds")
	}
	j := t.job
	j.mu.Lock()
	j.clock[t.r] += seconds
	j.mu.Unlock()
}

func (t *simTransport) time() float64 {
	j := t.job
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.clock[t.r]
}

func (t *simTransport) send(to, tag int, data any) int {
	j := t.job
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.aborted != nil {
		panic(j.aborted)
	}
	nb := payloadBytes(data)
	j.clock[t.r] += j.cm.SendOverhead + float64(nb)*j.cm.SecPerByte
	j.sendSeq[t.r]++
	j.boxes[to] = append(j.boxes[to], simMsg{
		Message: Message{From: t.r, Tag: tag, Data: data},
		arrival: j.clock[t.r] + j.cm.latency(t.r, to),
		seq:     j.sendSeq[t.r],
	})
	// The sender keeps running; grants cannot legally happen until it
	// parks, so no dispatch here.
	return nb
}

func (t *simTransport) recv(from, tag int) Message {
	j := t.job
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.aborted != nil {
		panic(j.aborted)
	}
	r := t.r
	j.state[r] = simParked
	j.wantFrom[r], j.wantTag[r] = from, tag
	j.running--
	j.dispatch()
	for !j.granted[r] {
		if j.aborted != nil {
			j.state[r] = simRunning
			j.running++
			panic(j.aborted)
		}
		j.conds[r].Wait()
	}
	j.granted[r] = false
	if j.aborted != nil {
		j.state[r] = simRunning
		j.running++
		panic(j.aborted)
	}
	i := j.bestMatch(r)
	if i < 0 {
		// Cannot happen: dispatch only grants ranks with a match.
		panic("mpi: simtime granted recv without matching message")
	}
	m := j.boxes[r][i]
	j.boxes[r] = append(j.boxes[r][:i], j.boxes[r][i+1:]...)
	j.clock[r] = math.Max(j.clock[r], m.arrival) + j.cm.RecvOverhead
	j.state[r] = simRunning
	j.running++
	return m.Message
}

// finish marks rank r done (or panicked) and reschedules.
func (j *simJob) finish(r int, panicked bool, cause any) {
	j.mu.Lock()
	if panicked && j.aborted == nil {
		j.aborted = fmt.Errorf("mpi: rank %d panicked: %v", r, cause)
		j.wakeAll()
	}
	if j.state[r] == simRunning {
		j.running--
	}
	j.state[r] = simDone
	j.done++
	j.dispatch()
	j.mu.Unlock()
}

// RunSim executes f on p simulated ranks under the given cost model and
// returns the makespan: the maximum virtual clock over all ranks at the
// time they returned. Execution is deterministic for deterministic rank
// code: message effects are totally ordered by virtual time with ties
// broken by rank and send sequence.
func RunSim(p int, cm CostModel, f func(c *Comm)) (makespan float64, err error) {
	if p < 1 {
		return 0, fmt.Errorf("mpi: need at least 1 rank, got %d", p)
	}
	job := newSimJob(p, cm)
	errs := make(chan error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer func() {
				if e := recover(); e != nil {
					job.finish(r, true, e)
					errs <- fmt.Errorf("mpi: rank %d: %v", r, e)
					return
				}
				job.finish(r, false, nil)
			}()
			f(&Comm{tr: &simTransport{job: job, r: r}})
		}(r)
	}
	wg.Wait()
	close(errs)
	for _, c := range job.clock {
		if c > makespan {
			makespan = c
		}
	}
	return makespan, <-errs
}
