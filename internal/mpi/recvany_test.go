package mpi

import (
	"fmt"
	"testing"
)

// TestRecvAnyInprocCausalOrder: on the in-process transport, RecvAny
// serves the merged delivery queue in arrival order. Causality pins the
// order here: rank 2 only sends after receiving rank 1's go-ahead, and
// rank 1 posted its message to rank 0 before that go-ahead, so rank 0
// must see rank 1 first.
func TestRecvAnyInprocCausalOrder(t *testing.T) {
	err := Run(3, func(c *Comm) {
		switch c.Rank() {
		case 0:
			first := c.RecvAny(7)
			second := c.RecvAny(7)
			if first.From != 1 || second.From != 2 {
				panic(fmt.Sprintf("arrival order violated: got %d then %d", first.From, second.From))
			}
		case 1:
			c.Send(0, 7, "early")
			c.Send(2, 9, "go")
		case 2:
			c.Recv(1, 9)
			c.Send(0, 7, "late")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRecvAnySimEarliestArrival: under the simulator, RecvAny grants the
// message with the earliest virtual arrival, regardless of which rank
// sent first. Rank 1's link is made 5× slower than rank 2's, so even
// though both send at virtual time zero, rank 2's message lands first.
func TestRecvAnySimEarliestArrival(t *testing.T) {
	cm := CostModel{
		SendOverhead: 1e-6,
		RecvOverhead: 1e-6,
		RankLatency: func(from, to int) float64 {
			if from == 1 {
				return 5e-3
			}
			return 1e-3
		},
	}
	_, err := RunSim(3, cm, func(c *Comm) {
		switch c.Rank() {
		case 0:
			first := c.RecvAny(7)
			second := c.RecvAny(7)
			if first.From != 2 || second.From != 1 {
				panic(fmt.Sprintf("virtual arrival order violated: got %d then %d", first.From, second.From))
			}
		default:
			c.Send(0, 7, c.Rank())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRecvAnySimTieBreak: equal virtual arrivals are broken by sender
// rank (then send sequence), keeping the simulator deterministic.
func TestRecvAnySimTieBreak(t *testing.T) {
	cm := CostModel{SendOverhead: 1e-6, RecvOverhead: 1e-6, Latency: 1e-3}
	for trial := 0; trial < 5; trial++ {
		_, err := RunSim(4, cm, func(c *Comm) {
			if c.Rank() == 0 {
				for want := 1; want <= 3; want++ {
					m := c.RecvAny(7)
					if m.From != want {
						panic(fmt.Sprintf("tie-break violated: want rank %d, got %d", want, m.From))
					}
				}
				return
			}
			c.Send(0, 7, c.Rank())
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecvAnyTCP: over sockets the cross-sender interleaving is up to
// the network, but RecvAny must still deliver every message exactly once
// with per-sender FIFO order intact.
func TestRecvAnyTCP(t *testing.T) {
	RegisterType(0)
	const p, per = 3, 8
	err := RunTCP(p, 0, func(c *Comm) {
		if c.Rank() != 0 {
			for i := 0; i < per; i++ {
				c.Send(0, 7, c.Rank()*100+i)
			}
			return
		}
		next := map[int]int{}
		for i := 0; i < (p-1)*per; i++ {
			m := c.RecvAny(7)
			want := m.From*100 + next[m.From]
			if m.Data.(int) != want {
				panic(fmt.Sprintf("per-sender FIFO violated: from %d got %d want %d", m.From, m.Data, want))
			}
			next[m.From]++
		}
		for from, n := range next {
			if n != per {
				panic(fmt.Sprintf("rank %d delivered %d of %d messages", from, n, per))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
