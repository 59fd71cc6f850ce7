package metrics

import "sync"

// The live set lets external observers — the CLI's /metrics endpoint and
// progress ticker — see the registries of a run that is still in flight:
// the pipeline registers each rank's registry at startup and unregisters
// it on the way out.

var (
	liveMu   sync.Mutex
	liveRegs = map[*Registry]struct{}{}
)

// RegisterLive adds a registry to the process-wide live set. Nil
// registries are ignored.
func RegisterLive(r *Registry) {
	if r == nil {
		return
	}
	liveMu.Lock()
	liveRegs[r] = struct{}{}
	liveMu.Unlock()
}

// UnregisterLive removes a registry from the live set.
func UnregisterLive(r *Registry) {
	if r == nil {
		return
	}
	liveMu.Lock()
	delete(liveRegs, r)
	liveMu.Unlock()
}

// LiveSnapshots snapshots every registered registry. Merge the result
// for a job-wide live view.
func LiveSnapshots() []Snapshot {
	liveMu.Lock()
	regs := make([]*Registry, 0, len(liveRegs))
	for r := range liveRegs {
		regs = append(regs, r)
	}
	liveMu.Unlock()
	out := make([]Snapshot, 0, len(regs))
	for _, r := range regs {
		out = append(out, r.Snapshot())
	}
	return out
}
