package mpi_test

import (
	"fmt"

	"profam/internal/mpi"
)

// ExampleRunSim simulates a two-rank exchange on a virtual machine with
// simple unit costs: the sender works 3 virtual seconds, ships a message
// costing 1 s overhead + 2 s latency, and the receiver charges 1 s to
// accept it — a 7-second makespan, deterministically.
func ExampleRunSim() {
	cm := mpi.CostModel{SendOverhead: 1, RecvOverhead: 1, Latency: 2}
	makespan, err := mpi.RunSim(2, cm, func(c *mpi.Comm) {
		if c.Rank() == 0 {
			c.Advance(3)
			c.Send(1, 0, nil)
		} else {
			c.Recv(0, 0)
		}
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("makespan: %.0fs\n", makespan)
	// Output:
	// makespan: 7s
}
