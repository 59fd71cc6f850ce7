package mpi

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestInprocRing(t *testing.T) {
	const p = 5
	err := Run(p, func(c *Comm) {
		next := (c.Rank() + 1) % p
		prev := (c.Rank() + p - 1) % p
		c.Send(next, 7, c.Rank()*10)
		m := c.Recv(prev, 7)
		if m.From != prev || m.Data.(int) != prev*10 {
			panic(fmt.Sprintf("rank %d got %+v", c.Rank(), m))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInprocWildcardAndTagFiltering(t *testing.T) {
	err := Run(3, func(c *Comm) {
		switch c.Rank() {
		case 0:
			// Receive tag 2 first even though tag 1 arrives first.
			a := c.Recv(Any, 2)
			b := c.Recv(Any, 1)
			if a.Data.(string) != "two" || b.Data.(string) != "one" {
				panic(fmt.Sprintf("tag filter broken: %v %v", a, b))
			}
			// Source filter.
			m := c.Recv(2, Any)
			if m.From != 2 {
				panic("source filter broken")
			}
			c.Recv(1, Any)
		case 1:
			c.Send(0, 1, "one")
			c.Send(0, 2, "two")
			c.Send(0, 9, "from1")
		case 2:
			c.Send(0, 9, "from2")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCollectives(t *testing.T) {
	for _, p := range []int{1, 2, 5, 8} {
		p := p
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			err := Run(p, func(c *Comm) {
				c.Barrier()
				got := c.Bcast(0, 42).(int)
				if got != 42 {
					panic("bcast wrong")
				}
				all := c.Gather(0, c.Rank()*2)
				if c.Rank() == 0 {
					for i, v := range all {
						if v.(int) != i*2 {
							panic(fmt.Sprintf("gather[%d] = %v", i, v))
						}
					}
				} else if all != nil {
					panic("non-root gather should be nil")
				}
				sum := c.Bcast(0, c.ReduceInt64(0, int64(c.Rank()+1), func(a, b int64) int64 { return a + b })).(int64)
				want := int64(p * (p + 1) / 2)
				if sum != want {
					panic(fmt.Sprintf("allreduce = %d, want %d", sum, want))
				}
				mx := c.MaxFloat64(float64(c.Rank()))
				if mx != float64(p-1) {
					panic(fmt.Sprintf("max = %v", mx))
				}
				c.Barrier()
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSendToSelf(t *testing.T) {
	// Self-sends must work on every transport (the TCP mesh short-cuts
	// them through the local mailbox).
	check := func(c *Comm) {
		c.Send(c.Rank(), 5, "self")
		m := c.Recv(c.Rank(), 5)
		if m.Data.(string) != "self" || m.From != c.Rank() {
			panic(fmt.Sprintf("self message corrupted: %+v", m))
		}
	}
	if err := Run(2, check); err != nil {
		t.Fatalf("inproc: %v", err)
	}
	if _, err := RunSim(2, BlueGeneLike(), check); err != nil {
		t.Fatalf("simtime: %v", err)
	}
	RegisterType("")
	if err := RunTCP(2, 0, check); err != nil {
		t.Fatalf("tcp: %v", err)
	}
}

func TestInprocPanicPropagates(t *testing.T) {
	err := Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			panic("boom")
		}
		c.Recv(Any, 5) // would deadlock without abort propagation
	})
	if err == nil || !strings.Contains(err.Error(), "panicked") && !strings.Contains(err.Error(), "aborted") {
		t.Fatalf("expected panic error, got %v", err)
	}
}

// TestRunContextCancelUnblocksRecv cancels a job whose ranks all wait
// on messages nobody sends: every rank unwinds, and the job reports the
// cancel. A job that finishes before its context is done is unaffected.
func TestRunContextCancelUnblocksRecv(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var waiting atomic.Int32
	go func() {
		for waiting.Load() < 3 {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	done := make(chan error, 1)
	go func() {
		done <- RunContext(ctx, 3, func(c *Comm) {
			waiting.Add(1)
			c.Recv(Any, 5)
		})
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "cancelled") {
			t.Fatalf("err = %v, want a cancelled job", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancel did not unblock the ranks")
	}

	if err := RunContext(context.Background(), 2, func(c *Comm) { c.Barrier() }); err != nil {
		t.Fatal(err)
	}
}

func TestSendValidation(t *testing.T) {
	err := Run(1, func(c *Comm) {
		defer func() {
			if recover() == nil {
				panic("Send to bad rank did not panic")
			}
			// Negative user tag must also panic.
			defer func() {
				if recover() == nil {
					panic("negative tag did not panic")
				}
			}()
			c.Send(0, -3, nil)
		}()
		c.Send(7, 0, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSimAdvanceMakespan(t *testing.T) {
	mk, err := RunSim(3, CostModel{}, func(c *Comm) {
		c.Advance(float64(c.Rank()) * 2)
	})
	if err != nil {
		t.Fatal(err)
	}
	if mk != 4 {
		t.Errorf("makespan = %v, want 4", mk)
	}
}

func TestSimCommunicationCost(t *testing.T) {
	cm := CostModel{SendOverhead: 1, RecvOverhead: 2, Latency: 10, SecPerByte: 0.5}
	mk, err := RunSim(2, cm, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, []byte("abcd")) // 4+8 bytes => 6s bandwidth
		} else {
			m := c.Recv(0, 0)
			if string(m.Data.([]byte)) != "abcd" {
				panic("payload corrupted")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Sender clock: 1 (overhead) + 6 (bytes) = 7; arrival 17; receiver
	// clock max(0,17)+2 = 19.
	if mk != 19 {
		t.Errorf("makespan = %v, want 19", mk)
	}
}

func TestSimVirtualTimeOrdering(t *testing.T) {
	// Rank 1 sends "late" after 10s of virtual work; rank 2 sends
	// "early" after 1s. Rank 0 must receive "early" first regardless of
	// real-time interleaving.
	cm := CostModel{Latency: 0.5}
	for trial := 0; trial < 20; trial++ {
		_, err := RunSim(3, cm, func(c *Comm) {
			switch c.Rank() {
			case 0:
				a := c.Recv(Any, 0)
				b := c.Recv(Any, 0)
				if a.Data.(string) != "early" || b.Data.(string) != "late" {
					panic(fmt.Sprintf("wrong order: %v then %v", a.Data, b.Data))
				}
			case 1:
				c.Advance(10)
				c.Send(0, 0, "late")
			case 2:
				c.Advance(1)
				c.Send(0, 0, "early")
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestSimDeterminism(t *testing.T) {
	run := func() (float64, int64) {
		var order int64
		mk, err := RunSim(4, BlueGeneLike(), func(c *Comm) {
			rng := rand.New(rand.NewSource(int64(c.Rank() + 1)))
			if c.Rank() == 0 {
				var sig int64
				for i := 0; i < 30; i++ {
					m := c.Recv(Any, 1)
					sig = sig*31 + int64(m.From) + m.Data.(int64)
				}
				atomic.StoreInt64(&order, sig)
			} else {
				for i := 0; i < 10; i++ {
					c.Advance(rng.Float64())
					c.Send(0, 1, int64(i))
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return mk, atomic.LoadInt64(&order)
	}
	mk1, sig1 := run()
	for i := 0; i < 5; i++ {
		mk2, sig2 := run()
		if mk1 != mk2 || sig1 != sig2 {
			t.Fatalf("nondeterministic: (%v,%d) vs (%v,%d)", mk1, sig1, mk2, sig2)
		}
	}
}

func TestSimDeadlockDetected(t *testing.T) {
	_, err := RunSim(2, CostModel{}, func(c *Comm) {
		c.Recv(Any, 0) // both ranks wait forever
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("expected deadlock error, got %v", err)
	}
}

func TestSimMasterWorkerScaling(t *testing.T) {
	// 120 independent unit-cost tasks farmed out by rank 0; makespan
	// should shrink roughly linearly with worker count.
	const tasks = 120
	work := func(c *Comm) {
		p := c.Size()
		if c.Rank() == 0 {
			remaining := tasks
			next := 0
			// Seed one task per worker, then hand out on completion.
			for w := 1; w < p && next < tasks; w++ {
				c.Send(w, 0, next)
				next++
			}
			for remaining > 0 {
				m := c.Recv(Any, 1)
				remaining--
				if next < tasks {
					c.Send(m.From, 0, next)
					next++
				} else {
					c.Send(m.From, 0, -1)
				}
			}
			for w := 1; w < p; w++ {
				// Workers with no task yet still need a stop signal? No:
				// every worker got at least one task for p-1 <= tasks.
				_ = w
			}
		} else {
			for {
				m := c.Recv(0, 0)
				if m.Data.(int) < 0 {
					return
				}
				c.Advance(1)
				c.Send(0, 1, m.Data)
			}
		}
	}
	t2, err := RunSim(3, BlueGeneLike(), work) // 2 workers
	if err != nil {
		t.Fatal(err)
	}
	t8, err := RunSim(9, BlueGeneLike(), work) // 8 workers
	if err != nil {
		t.Fatal(err)
	}
	speedup := t2 / t8
	if speedup < 3.5 || speedup > 4.5 {
		t.Errorf("speedup 2->8 workers = %.2f, want ~4", speedup)
	}
}

func TestSimCollectives(t *testing.T) {
	_, err := RunSim(4, BlueGeneLike(), func(c *Comm) {
		v := c.Bcast(0, c.ReduceInt64(0, 1, func(a, b int64) int64 { return a + b })).(int64)
		if v != 4 {
			panic("allreduce under sim wrong")
		}
		c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSimPanicPropagates(t *testing.T) {
	_, err := RunSim(2, CostModel{}, func(c *Comm) {
		if c.Rank() == 1 {
			panic("sim boom")
		}
		c.Recv(Any, 0)
	})
	if err == nil {
		t.Fatal("expected error from panicking rank")
	}
}

func TestTCPRingAndCollectives(t *testing.T) {
	RegisterType("")
	RegisterType(0)
	RegisterType(int64(0))
	RegisterType(float64(0))
	const p = 3
	err := RunTCP(p, 0, func(c *Comm) {
		next := (c.Rank() + 1) % p
		prev := (c.Rank() + p - 1) % p
		c.Send(next, 3, fmt.Sprintf("hello-%d", c.Rank()))
		m := c.Recv(prev, 3)
		if m.Data.(string) != fmt.Sprintf("hello-%d", prev) {
			panic(fmt.Sprintf("rank %d ring payload %v", c.Rank(), m))
		}
		sum := c.Bcast(0, c.ReduceInt64(0, int64(c.Rank()), func(a, b int64) int64 { return a + b })).(int64)
		if sum != 3 {
			panic(fmt.Sprintf("tcp allreduce = %d", sum))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTCPDeadPeerFailsRecv: a rank that dies closes its sockets, and a
// rank blocked in Recv from it must fail instead of waiting forever.
func TestTCPDeadPeerFailsRecv(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		done <- RunTCP(2, 0, func(c *Comm) {
			if c.Rank() == 1 {
				panic("rank 1 dies")
			}
			c.Recv(1, 7)
		})
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("RunTCP reported success although rank 1 panicked")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("rank 0 still blocked in Recv from a dead peer after 10 s")
	}
}

// TestTCPCleanShutdown: ranks leave a finished job at different times,
// closing their sockets while others still wait in the final barrier.
// That is not a lost peer: every run must succeed.
func TestTCPCleanShutdown(t *testing.T) {
	for i := 0; i < 10; i++ {
		if err := RunTCP(6, 0, func(c *Comm) { c.Barrier() }); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
}

func TestTCPLargerPayloads(t *testing.T) {
	RegisterType([]int32{})
	err := RunTCP(2, 0, func(c *Comm) {
		if c.Rank() == 0 {
			data := make([]int32, 5000)
			for i := range data {
				data[i] = int32(i)
			}
			c.Send(1, 0, data)
		} else {
			m := c.Recv(0, 0)
			got := m.Data.([]int32)
			if len(got) != 5000 || got[4999] != 4999 {
				panic("large payload corrupted")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPayloadBytes(t *testing.T) {
	if payloadBytes([]byte("abcd")) != 12 {
		t.Error("[]byte size wrong")
	}
	if payloadBytes([]int32{1, 2}) != 16 {
		t.Error("[]int32 size wrong")
	}
	if payloadBytes(nil) != 8 {
		t.Error("nil size wrong")
	}
	if payloadBytes(struct{}{}) != DefaultMsgBytes {
		t.Error("default size wrong")
	}
	if payloadBytes(sizedPayload{}) != 1234 {
		t.Error("Sized interface ignored")
	}
}

type sizedPayload struct{}

func (sizedPayload) WireSize() int { return 1234 }

func BenchmarkInprocPingPong(b *testing.B) {
	err := Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			for i := 0; i < b.N; i++ {
				c.Send(1, 0, i)
				c.Recv(1, 1)
			}
		} else {
			for i := 0; i < b.N; i++ {
				c.Recv(0, 0)
				c.Send(0, 1, i)
			}
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkSimPingPong(b *testing.B) {
	_, err := RunSim(2, BlueGeneLike(), func(c *Comm) {
		if c.Rank() == 0 {
			for i := 0; i < b.N; i++ {
				c.Send(1, 0, i)
				c.Recv(1, 1)
			}
		} else {
			for i := 0; i < b.N; i++ {
				c.Recv(0, 0)
				c.Send(0, 1, i)
			}
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

func TestCommStats(t *testing.T) {
	err := Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, []byte("abcd")) // 12 bytes
			c.Recv(1, 1)
		} else {
			c.Recv(0, 0)
			c.Send(0, 1, nil)
		}
		c.Barrier()
		st := c.Stats()
		if st.MsgsSent < 2 || st.MsgsRecv < 2 {
			panic(fmt.Sprintf("rank %d stats too low: %+v", c.Rank(), st))
		}
		if c.Rank() == 0 && st.BytesSent < 12 {
			panic(fmt.Sprintf("BytesSent = %d", st.BytesSent))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
