// Distributed execution: the same pipeline code on three transports.
//
//  1. A deterministic virtual-time simulation of a BlueGene/L-like
//     machine sweeps 32..512 ranks and prints the speedup curve of the
//     redundancy-removal + clustering phases (the paper's Figure 7a).
//
//  2. An in-process TCP mesh (gob-encoded messages over real sockets —
//     the "custom RPC" substrate) runs the full pipeline end to end.
//
//     go run ./examples/distributed [-n 500] [-tcp-port 42800]
package main

import (
	"flag"
	"fmt"
	"log"

	"profam"
	"profam/internal/mpi"
	"profam/internal/pace"
	"profam/internal/workload"
)

func main() {
	n := flag.Int("n", 500, "approximate number of sequences")
	port := flag.Int("tcp-port", 42800, "base port for the TCP mesh demo")
	flag.Parse()

	set, _ := workload.Generate(workload.Params{
		Families:       *n / 80,
		MeanFamilySize: 60,
		MeanLength:     120,
		Divergence:     0.10,
		ContainedFrac:  0.12,
		Singletons:     *n / 50,
		Seed:           3,
	})
	fmt.Printf("data set: %d sequences\n\n", set.Len())

	// --- virtual-time scaling sweep --------------------------------
	fmt.Println("simulated BlueGene/L sweep (RR+CCD virtual seconds):")
	ps := []int{32, 64, 128, 256, 512}
	cfg := pace.Config{Psi: 7}
	times := make([]float64, len(ps))
	for i, p := range ps {
		mk, err := mpi.RunSim(p, mpi.BlueGeneLike(), func(c *mpi.Comm) {
			keep, _, err := pace.RedundancyRemoval(c, set, cfg)
			if err != nil {
				panic(err)
			}
			if _, _, err := pace.ConnectedComponents(c, set, keep, cfg); err != nil {
				panic(err)
			}
		})
		if err != nil {
			log.Fatal(err)
		}
		times[i] = mk
	}
	fmt.Printf("%8s %12s %10s\n", "ranks", "time (s)", "speedup")
	for i, p := range ps {
		fmt.Printf("%8d %12.2f %9.1fx\n", p, times[i], times[0]/times[i])
	}

	// --- real sockets ------------------------------------------------
	fmt.Println("\nfull pipeline over a 4-rank TCP mesh (loopback):")
	pcfg := profam.Config{Psi: 7, EdgeSimilarity: 0.7}
	var famCount, seqInFam int
	err := mpi.RunTCP(4, *port, func(c *mpi.Comm) {
		res, err := profam.RunPipelineOn(c, set, pcfg)
		if err != nil {
			panic(err)
		}
		if c.Rank() == 0 {
			famCount = len(res.Families)
			seqInFam = res.SeqsInFamilies()
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("TCP run: %d families covering %d sequences\n", famCount, seqInFam)
}
