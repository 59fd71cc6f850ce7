package profam

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"

	"profam/internal/align"
	"profam/internal/pace"
	"profam/internal/seq"
	"profam/internal/unionfind"
)

// ErrAborted is the cause of an epoch run cancelled through RunEpoch's
// context; the returned error wraps it and the context's cause, and, as
// for any other failed run, it is a *RunError carrying every rank's last
// metrics and trace snapshots.
var ErrAborted = errors.New("profam: run aborted")

// ErrConfigChanged rejects an incremental epoch whose configuration
// differs (in any family-affecting knob) from the one the prior state
// was built under. The incremental == cold determinism contract only
// holds when every epoch agrees on those knobs; callers must rebuild
// from scratch after a config change.
var ErrConfigChanged = errors.New("profam: config differs from committed epoch state")

// EpochState is the committed clustering state after some number of
// ingest epochs: the corpus so far plus everything the next epoch needs
// to avoid reclustering it — redundancy verdicts, the family cache (each
// component's families under its exact member list), and the pair table
// (every promising pair of two kept sequences, with its overlap counts
// once an alignment computed them), whose stored positives seed the next
// epoch's clustering. It is the one value that flows between epochs: the
// pipeline takes the committed state and builds the next one on rank 0,
// and RunEpoch stamps its epoch number and config fingerprint. It is
// immutable once returned: RunEpoch never mutates its input state, so an
// aborted or failed epoch leaves the committed state (and anything
// serving from it) untouched. The zero of the type is not useful; start
// from NewEpochState (epoch 0, empty corpus).
type EpochState struct {
	set         *seq.Set
	redundant   []bool
	famCache    map[string][]wireFamily
	table       pairTable
	epoch       int
	fingerprint string
}

// pairTable holds every promising pair of two kept sequences, keyed by
// its IDs, lower first (DESIGN.md §9): its longest match length, which
// orders a replay, and the overlap counts of the local alignment of the
// lower ID against the higher, zero until one has been computed.
type pairTable map[[2]int32]tableEntry

type tableEntry struct {
	Len     int32
	Overlap align.OverlapCounts
}

// next returns a new table: t's pairs without a redundant side, then
// CCD's list and its verdicts' counts. The list holds the pairs with a
// new side and the pairs of t that seed left open, whose entries it
// leaves as they are but for their counts.
func (t pairTable) next(keep []bool, pairs []pace.PairItem, verdicts []pace.Verdict) pairTable {
	out := make(pairTable, len(t)+len(pairs))
	for k, e := range t {
		if keep[k[0]] && keep[k[1]] {
			out[k] = e
		}
	}
	for _, p := range pairs {
		e := out[[2]int32{p.A, p.B}]
		e.Len = p.Len
		out[[2]int32{p.A, p.B}] = e
	}
	out.setCounts(verdicts)
	return out
}

// setCounts stores the counts of every verdict.
func (t pairTable) setCounts(verdicts []pace.Verdict) {
	for _, v := range verdicts {
		e := t[[2]int32{v.A, v.B}]
		e.Overlap = v.Overlap
		t[[2]int32{v.A, v.B}] = e
	}
}

// seed returns a union–find over n sequences that joins every kept–kept
// pair of t whose stored counts pass overlap, and the kept–kept pairs of
// t without counts that it leaves in two sets, longest match first, ties
// by IDs: those are the only pairs of t whose verdict can still change
// the partition, so an epoch's CCD replays them (DESIGN.md §9).
func (t pairTable) seed(n int, keep []bool, overlap align.OverlapParams) (*unionfind.UF, []pace.PairItem) {
	uf := unionfind.New(n)
	for k, e := range t {
		if keep[k[0]] && keep[k[1]] && overlap.Accept(e.Overlap) {
			uf.Union(int(k[0]), int(k[1]))
		}
	}
	var open []pace.PairItem
	for k, e := range t {
		if keep[k[0]] && keep[k[1]] && e.Overlap.LongLen == 0 && !uf.Same(int(k[0]), int(k[1])) {
			open = append(open, pace.PairItem{A: k[0], B: k[1], Len: e.Len})
		}
	}
	slices.SortFunc(open, func(x, y pace.PairItem) int {
		return cmp.Or(cmp.Compare(y.Len, x.Len), cmp.Compare(x.A, y.A), cmp.Compare(x.B, y.B))
	})
	return uf, open
}

// inside lists, per component of comps, t's pairs inside it, given every
// sequence's component label.
func (t pairTable) inside(comp []int32, comps [][]int) componentPairs {
	at := make(map[int32]int, len(comps))
	for i, members := range comps {
		at[comp[members[0]]] = i
	}
	out := make(componentPairs, len(comps))
	for k, e := range t {
		if i, ok := at[comp[k[0]]]; ok && comp[k[0]] == comp[k[1]] {
			out[i] = append(out[i], pace.Verdict{A: k[0], B: k[1], Overlap: e.Overlap})
		}
	}
	return out
}

// componentPairs is phase 3's broadcast: the table's pairs inside each
// component B_d builds.
type componentPairs [][]pace.Verdict

// WireSize implements mpi.Sized for the simtime cost model.
func (c componentPairs) WireSize() int {
	n := 16
	for _, ps := range c {
		n += 8 + 24*len(ps)
	}
	return n
}

// NewEpochState returns the empty starting state (epoch 0).
func NewEpochState() *EpochState {
	return &EpochState{set: seq.NewSet()}
}

// Epoch returns how many epochs have been committed into this state.
func (s *EpochState) Epoch() int { return s.epoch }

// NumSequences returns the corpus size.
func (s *EpochState) NumSequences() int { return s.set.Len() }

// Set exposes the accumulated corpus. Callers must treat it as
// read-only.
func (s *EpochState) Set() *seq.Set { return s.set }

// RunEpoch clusters the union of prior's corpus and the new sequences on
// p in-process ranks, incrementally: only pairs involving at least one
// new sequence are aligned, prior redundancy and component verdicts are
// reused, and components untouched by the new arrivals skip the family
// phases entirely via the prior's family cache. Every rank reads the same
// prior, so each finds the cache hits on its own. The returned Result is
// byte-identical to a cold run over the union corpus (the determinism
// contract; see DESIGN.md §9) and covers the whole corpus, with sequence
// IDs assigned in arrival order. On success the second return is the
// next committed state; on any error — including ErrAborted — it is
// prior, unchanged. Empty names default to "seq<ID>" by union-corpus
// position, matching Run.
//
// Cancelling ctx aborts the run: every rank blocked in a receive unwinds
// at once, and each rank also checks ctx before RR, after RR and after
// CCD. A failed or cancelled run returns a *RunError.
func RunEpoch(ctx context.Context, prior *EpochState, names, seqs []string, p int, cfg Config) (*Result, *EpochState, error) {
	if prior == nil {
		prior = NewEpochState()
	}
	if names == nil {
		names = make([]string, len(seqs))
	}
	if len(names) != len(seqs) {
		return nil, prior, fmt.Errorf("profam: %d names but %d sequences", len(names), len(seqs))
	}
	fp := cfg.epochFingerprint()
	if prior.epoch > 0 && prior.fingerprint != fp {
		return nil, prior, ErrConfigChanged
	}

	// The union corpus: prior sequences keep their IDs (the Sequence
	// records are immutable, so sharing them with the committed set is
	// safe), new arrivals are appended in submission order.
	union := &seq.Set{Seqs: append(make([]*seq.Sequence, 0, prior.set.Len()+len(seqs)), prior.set.Seqs...)}
	for i := range seqs {
		if _, err := union.Add(names[i], seqs[i]); err != nil {
			return nil, prior, err
		}
	}

	res, next, _, err := runJob(ctx, union, p, false, cfg, prior)
	if err != nil {
		return nil, prior, err
	}
	next.epoch, next.fingerprint = prior.epoch+1, fp
	return res, next, nil
}
