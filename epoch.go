package profam

import (
	"context"
	"errors"
	"fmt"

	"profam/internal/bipartite"
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
// to avoid reclustering it — redundancy verdicts, the union–find over the
// whole corpus (redundant sequences are singletons), the family cache (each component's families under its
// exact member list), and the overlap counts of every aligned pair
// inside a component. It is the one value that flows between epochs:
// the pipeline takes the committed state and builds the next one on
// rank 0, and RunEpoch stamps its epoch number and config fingerprint.
// It is immutable once returned: RunEpoch never mutates its input state,
// so an aborted or failed epoch leaves the committed state (and anything
// serving from it) untouched. The zero of the type is not useful; start
// from NewEpochState (epoch 0, empty corpus).
type EpochState struct {
	set         *seq.Set
	redundant   []bool
	uf          *unionfind.UF
	famCache    map[string][]wireFamily
	memo        bipartite.Memo
	epoch       int
	fingerprint string
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
		name := names[i]
		if name == "" {
			name = fmt.Sprintf("seq%d", union.Len())
		}
		if _, err := union.Add(name, seqs[i]); err != nil {
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
