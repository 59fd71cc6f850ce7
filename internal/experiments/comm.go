package experiments

import (
	"fmt"
	"io"

	"profam/internal/metrics"
	"profam/internal/mpi"
	"profam/internal/pace"
)

// CommRow records the communication volume of one (n, p) RR+CCD run.
type CommRow struct {
	N, P        int
	MasterMsgs  int64
	MasterBytes int64
	TotalMsgs   int64
	TotalBytes  int64
}

// Comm measures message counts and bytes as a function of processor
// count — the master–worker pattern concentrates traffic at rank 0, and
// this experiment quantifies that (the scalability ceiling Figure 7a's
// discussion points at).
func Comm(scale float64) ([]CommRow, error) {
	set, _ := SetOfSize(int(400*scale), 55)
	var rows []CommRow
	for _, p := range []int{4, 16, 64, 256} {
		row := CommRow{N: set.Len(), P: p}
		regs := make([]*metrics.Registry, p)
		_, err := mpi.RunSim(p, mpi.BlueGeneLike(), func(c *mpi.Comm) {
			regs[c.Rank()] = metrics.New(c.Rank(), c.Time)
			c.AttachMetrics(regs[c.Rank()])
			keep, _, err := pace.RedundancyRemoval(c, set, pace.Config{Psi: 7})
			if err != nil {
				panic(err)
			}
			if _, _, err := pace.ConnectedComponents(c, set, keep, pace.Config{Psi: 7}); err != nil {
				panic(err)
			}
		})
		if err != nil {
			return nil, err
		}
		count := func(r int, name string) int64 {
			return regs[r].Counter(metrics.Name(name, "transport", "sim")).Value()
		}
		row.MasterMsgs = count(0, "mpi_msgs_sent") + count(0, "mpi_msgs_recv")
		row.MasterBytes = count(0, "mpi_bytes_sent")
		for r := range regs {
			row.TotalMsgs += count(r, "mpi_msgs_sent")
			row.TotalBytes += count(r, "mpi_bytes_sent")
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintComm renders the volume table.
func PrintComm(w io.Writer, rows []CommRow) {
	fmt.Fprintln(w, "Communication volume, RR+CCD (master–worker traffic concentrates at rank 0)")
	fmt.Fprintf(w, "%6s %6s %12s %14s %12s %14s %9s\n",
		"n", "p", "masterMsgs", "masterBytes", "totalMsgs", "totalBytes", "master%")
	for _, r := range rows {
		pct := 0.0
		if r.TotalBytes > 0 {
			pct = 100 * float64(r.MasterBytes) / float64(r.TotalBytes)
		}
		fmt.Fprintf(w, "%6d %6d %12d %14d %12d %14d %8.1f%%\n",
			r.N, r.P, r.MasterMsgs, r.MasterBytes, r.TotalMsgs, r.TotalBytes, pct)
	}
}
