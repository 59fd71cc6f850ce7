package profam

import (
	"bytes"
	"fmt"
	"log/slog"
	"sort"
	"strconv"

	"profam/internal/metrics"
	"profam/internal/minhash"
	"profam/internal/mpi"
	"profam/internal/pace"
	"profam/internal/seq"
	"profam/internal/shingle"
	"profam/internal/trace"
	"profam/internal/unionfind"
)

// LSH similarity sharding (DESIGN.md §7f): phases 1+2 run as Config.Shards
// independent sub-problems, each driven by its own master inside a rank
// group carved out of the world communicator with mpi.Comm.Split, plus a
// masterless cross-shard boundary pass. The flow:
//
//  1. Signature phase (world comm, striped): every sequence gets a MinHash
//     signature over its distinct ψ-mer hashes under a fingerprint-seeded
//     permutation family, folded by LSH banding into band buckets.
//     Sequences colliding in any band cluster together and whole clusters
//     are placed greedily on shards (rank 0 places, broadcasts the
//     assignment). The ψ-mer postings are exchanged all-to-all by hash
//     partition — no rank ever holds the full posting table.
//  2. Boundary candidates (world comm, hash-partitioned): each rank owns
//     the ψ-mer hash classes equal to its rank mod p and enumerates the
//     cross-shard pairs sharing a ψ-mer there, extending one shared
//     occurrence to a maximal match as the cascade seed. Any promising
//     pair (maximal match ≥ ψ) shares a ψ-mer, so cross-shard candidate
//     recall is exact — LSH banding only decides placement, never recall.
//  3. Per-shard RR, then CCD (rank groups): group g = ranks ≡ g (mod G)
//     serves shards ≡ g (mod G) sequentially, each shard an unchanged
//     master–worker phase over the shard's subset.
//  4. Boundary merge (world comm): cross-shard candidates surviving a
//     static filter against the per-shard verdicts are aligned in place
//     on each owning rank; positive verdicts gather on rank 0, where RR
//     marks replay in a canonical order and CCD edges fold into a global
//     union–find (merges commute), followed by a global renumber.

// shardSig carries one rank's stripe of LSH band buckets (ShardBands
// per sequence, flattened) to the placement on rank 0.
type shardSig struct {
	Seqs  []int32
	Bands []uint64
}

// WireSize implements mpi.Sized.
func (s shardSig) WireSize() int { return 24 + 4*len(s.Seqs) + 8*len(s.Bands) }

// shardPost is one slice of the ψ-mer posting table in the all-to-all
// hash-partition exchange: parallel (sequence, offset, hash) triples.
type shardPost struct {
	Seq  []int32
	Off  []int32
	Hash []uint64
}

// WireSize implements mpi.Sized.
func (s shardPost) WireSize() int { return 32 + 4*(len(s.Seq)+len(s.Off)) + 8*len(s.Hash) }

// tagShardPost carries the posting-partition exchange, tagShardCtl the
// leader hops of tree broadcasts; both distinct from the master–worker
// tags so a stray phase message can never match them.
const (
	tagShardPost = 13
	tagShardCtl  = 14
)

// treeBcast broadcasts rank 0's data in two hops: world sends to the G
// group leaders (parent ranks 1..G-1; leader g is sub rank 0 of group g
// because sub ranks renumber by ascending parent rank), then concurrent
// sub-group broadcasts. Rank 0's link carries the payload G-1 times
// instead of p-1 — the difference between milliseconds and tens of
// milliseconds for corpus-sized arrays on a 64-rank job. Sequential
// calls share tagShardCtl safely: matching is FIFO per (sender, tag).
func treeBcast(c, sub *mpi.Comm, G int, data any) any {
	if c.Size() == 1 {
		return data
	}
	if c.Rank() == 0 {
		for g := 1; g < G; g++ {
			c.Send(g, tagShardCtl, data)
		}
	} else if c.Rank() < G {
		data = c.Recv(0, tagShardCtl).Data
	}
	return sub.Bcast(0, data)
}

// shardMask is a group leader's per-shard RR contribution: the IDs its
// shards marked redundant plus the summed phase stats.
type shardMask struct {
	Redundant []int32
	Stats     pace.Stats
}

// WireSize implements mpi.Sized.
func (m shardMask) WireSize() int { return 96 + 4*len(m.Redundant) }

// shardEdges is a group leader's per-shard CCD contribution: union edges
// (member → component label) reconstructing its shards' partitions.
type shardEdges struct {
	From, To []int32
	Stats    pace.Stats
}

// WireSize implements mpi.Sized.
func (e shardEdges) WireSize() int { return 96 + 4*(len(e.From)+len(e.To)) }

// shardVerdicts is one rank's boundary-pass result: the positive
// outcomes of its candidate stripe plus the counts feeding the stats.
type shardVerdicts struct {
	Results []pace.AlignOutcome
	Raw     int64 // candidates enumerated before dedup/filtering
	Tasks   int64 // candidates aligned after the static filter
	Cells   int64
}

// WireSize implements mpi.Sized.
func (v shardVerdicts) WireSize() int { return 40 + 29*len(v.Results) }

func registerShardWireTypes() {
	mpi.RegisterType(shardSig{})
	mpi.RegisterType(shardPost{})
	mpi.RegisterType(shardMask{})
	mpi.RegisterType(shardEdges{})
	mpi.RegisterType(shardVerdicts{})
}

func addStats(a, b pace.Stats) pace.Stats {
	a.PairsRaw += b.PairsRaw
	a.PairsGenerated += b.PairsGenerated
	a.PairsDuplicate += b.PairsDuplicate
	a.PairsClosure += b.PairsClosure
	a.PairsAligned += b.PairsAligned
	a.PairsPositive += b.PairsPositive
	a.Cells += b.Cells
	a.Rounds += b.Rounds
	a.TreeTime += b.TreeTime
	return a
}

// shardLabel formats the per-shard metric label value.
func shardLabel(s int) string { return strconv.Itoa(s) }

// shardAssignments runs the signature phase: striped MinHash + banding,
// a gather/broadcast so every rank holds every sequence's band buckets
// and the full posting table, then the deterministic placement. Two
// sequences sharing any band bucket must cluster together (classic LSH
// candidate grouping, closed transitively with a union–find), and whole
// clusters are placed greedily — largest first onto the least-loaded
// shard — so high-similarity groups never straddle shards while shard
// sizes stay balanced. Placement is a pure function of the corpus and
// the shard knobs: the bucket walk, cluster order and tie-breaks are all
// over ascending sequence IDs, never map iteration order.
func shardAssignments(c, sub *mpi.Comm, G int, set *seq.Set, cfg Config, costs pace.CostParams, reg *metrics.Registry) (primary []int32, posts shardPost) {
	n, p := set.Len(), c.Size()
	B := cfg.ShardBands
	fam := minhash.NewFamilyFixed(B*cfg.ShardRows, uint64(cfg.ShardSeed))
	var my shardSig
	parts := make([]shardPost, p)
	var sig, bkt []uint64
	var sigChars, sigOps int64
	for i := c.Rank(); i < n; i += p {
		res := set.Get(i).Res
		ps := minhash.KmerPostings(res, cfg.Psi)
		sigChars += int64(len(res)) * int64(cfg.Psi)
		sigOps += int64(len(ps)) * int64(len(fam.Perms))
		sig = fam.Signature(ps, sig)
		bkt = minhash.BandBuckets(sig, B, cfg.ShardRows, bkt)
		my.Seqs = append(my.Seqs, int32(i))
		my.Bands = append(my.Bands, bkt...)
		for _, po := range ps {
			d := &parts[po.Hash%uint64(p)]
			d.Seq = append(d.Seq, int32(i))
			d.Off = append(d.Off, po.Off)
			d.Hash = append(d.Hash, po.Hash)
		}
	}
	// Hashing cost mirrors the suffix-tree char calibration; permutation
	// evaluations are priced like the dense-subgraph phase's min-hash ops.
	c.Advance(float64(sigChars)*costs.SecPerTreeChar + float64(sigOps)*shingle.SecPerHashOp)

	// All-to-all: rank r keeps only the hash classes ≡ r (mod p), so the
	// posting table is partitioned, never replicated. Sends complete
	// asynchronously on every transport; receives match per sender.
	posts = parts[c.Rank()]
	for d := 0; d < p; d++ {
		if d != c.Rank() {
			c.Send(d, tagShardPost, parts[d])
		}
	}
	for s := 0; s < p; s++ {
		if s == c.Rank() {
			continue
		}
		g := c.Recv(s, tagShardPost).Data.(shardPost)
		posts.Seq = append(posts.Seq, g.Seq...)
		posts.Off = append(posts.Off, g.Off...)
		posts.Hash = append(posts.Hash, g.Hash...)
	}

	// Rank 0 clusters and places; everyone else just learns the result.
	gathered := c.Gather(0, my)
	primary = make([]int32, n)
	if c.Rank() == 0 {
		bands := make([]uint64, n*B)
		for _, g := range gathered {
			gs := g.(shardSig)
			for k, id := range gs.Seqs {
				copy(bands[int(id)*B:int(id)*B+B], gs.Bands[k*B:(k+1)*B])
			}
		}
		placeShards(bands, n, B, cfg.Shards, primary)
		c.Advance(float64(n*B) * shingle.SecPerHashOp)
		sizes := make([]int64, cfg.Shards)
		for _, s := range primary {
			sizes[s]++
		}
		var maxSz int64
		for s, sz := range sizes {
			reg.Counter(metrics.Name("pace_shard_seqs", "shard", shardLabel(s))).Add(sz)
			if sz > maxSz {
				maxSz = sz
			}
		}
		if n > 0 {
			mean := float64(n) / float64(cfg.Shards)
			reg.Gauge("pace_shard_imbalance").Set(float64(maxSz) / mean)
		}
	}
	primary = treeBcast(c, sub, G, primary).([]int32)
	return primary, posts
}

// placeShards writes the shard assignment into primary: sequences
// colliding in any LSH band are unioned into clusters (the key mixes in
// the band index so equal tuples in different bands stay distinct), then
// clusters are placed largest first (ties by smallest member) onto the
// currently lightest shard (ties by lowest index). Every walk is over
// ascending sequence IDs — never map iteration order — so the placement
// is a pure function of the bands.
func placeShards(bands []uint64, n, B, shards int, primary []int32) {
	type bandKey struct {
		t int
		h uint64
	}
	uf := unionfind.New(n)
	firstIn := make(map[bandKey]int, n)
	for i := 0; i < n; i++ {
		for t := 0; t < B; t++ {
			k := bandKey{t, bands[i*B+t]}
			if j, ok := firstIn[k]; ok {
				uf.Union(i, j)
			} else {
				firstIn[k] = i
			}
		}
	}
	var clusters [][]int
	clusterOf := make(map[int]int)
	for i := 0; i < n; i++ {
		r := uf.Find(i)
		ci, ok := clusterOf[r]
		if !ok {
			ci = len(clusters)
			clusterOf[r] = ci
			clusters = append(clusters, nil)
		}
		clusters[ci] = append(clusters[ci], i)
	}
	order := make([]int, len(clusters))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ca, cb := clusters[order[a]], clusters[order[b]]
		if len(ca) != len(cb) {
			return len(ca) > len(cb)
		}
		return ca[0] < cb[0]
	})
	load := make([]int, shards)
	for _, ci := range order {
		s := 0
		for t := 1; t < shards; t++ {
			if load[t] < load[s] {
				s = t
			}
		}
		load[s] += len(clusters[ci])
		for _, i := range clusters[ci] {
			primary[i] = int32(s)
		}
	}
}

// boundaryCandidates enumerates this rank's stripe of cross-shard
// promising pairs: ψ-mer hash classes with hash ≡ rank (mod p), every
// cross-primary pair inside a class deduplicated and seeded with the
// maximal extension of the shared occurrence (byte-verified, so hash
// collisions cannot seed a bogus pair). The same pair discovered under
// two ψ-mers in different hash classes may be emitted by two ranks;
// verdicts are deterministic, so the downstream merge absorbs duplicates.
func boundaryCandidates(c *mpi.Comm, set *seq.Set, primary []int32, posts shardPost, cfg Config, costs pace.CostParams, reg *metrics.Registry) ([]pace.PairItem, int64) {
	type post struct {
		hash uint64
		seq  int32
		off  int32
	}
	mine := make([]post, len(posts.Hash))
	for k, h := range posts.Hash {
		mine[k] = post{hash: h, seq: posts.Seq[k], off: posts.Off[k]}
	}
	sort.Slice(mine, func(i, j int) bool {
		if mine[i].hash != mine[j].hash {
			return mine[i].hash < mine[j].hash
		}
		if mine[i].seq != mine[j].seq {
			return mine[i].seq < mine[j].seq
		}
		return mine[i].off < mine[j].off
	})
	psi := cfg.Psi
	seen := make(map[int64]bool)
	var out []pace.PairItem
	var raw, scanChars int64
	for lo := 0; lo < len(mine); {
		hi := lo + 1
		for hi < len(mine) && mine[hi].hash == mine[lo].hash {
			hi++
		}
		for x := lo; x < hi; x++ {
			for y := x + 1; y < hi; y++ {
				a, b := mine[x], mine[y]
				if a.seq == b.seq || primary[a.seq] == primary[b.seq] {
					continue
				}
				raw++
				if a.seq > b.seq {
					a, b = b, a
				}
				key := int64(a.seq)<<32 | int64(uint32(b.seq))
				if seen[key] {
					continue
				}
				seen[key] = true
				ra, rb := set.Get(int(a.seq)).Res, set.Get(int(b.seq)).Res
				oa, ob := int(a.off), int(b.off)
				if !bytes.Equal(ra[oa:oa+psi], rb[ob:ob+psi]) {
					continue // 64-bit hash collision
				}
				ext := 0
				for oa-ext-1 >= 0 && ob-ext-1 >= 0 && ra[oa-ext-1] == rb[ob-ext-1] {
					ext++
				}
				length := psi
				for oa+length < len(ra) && ob+length < len(rb) && ra[oa+length] == rb[ob+length] {
					length++
				}
				scanChars += int64(ext + length)
				out = append(out, pace.PairItem{
					A: a.seq, B: b.seq,
					OffA: int32(oa - ext), OffB: int32(ob - ext),
					Len: int32(length + ext),
				})
			}
		}
		lo = hi
	}
	// Partition sort priced per posting at comparison width ψ; enumeration
	// per raw pair; seed extension per residue compared.
	c.Advance(float64(len(mine))*float64(psi)*costs.SecPerTreeChar +
		float64(raw)*costs.SecPerPairGen + float64(scanChars)*costs.SecPerTreeChar)
	reg.Counter("pace_shard_boundary_pairs").Add(int64(len(out)))
	return out, raw
}

// runShardedPhases executes phases 1+2 of the sharded pipeline and
// returns results shaped exactly like the single-master path: the global
// keep mask, component labels (smallest kept member per component, -1
// otherwise), the rank-0 union–find over the kept subset, and the two
// phases' summed stats. All returns except ccUF are rank-identical.
func runShardedPhases(c *mpi.Comm, set *seq.Set, cfg Config, pcfg pace.Config, reg *metrics.Registry, tracer *trace.Tracer, log *slog.Logger) (keep []bool, comp []int32, ccUF *unionfind.UF, rrStats, ccStats pace.Stats, err error) {
	n := set.Len()
	costs := pcfg.Costs
	if costs == (pace.CostParams{}) {
		costs = pace.DefaultCostParams()
	}

	// Rank groups: group g (ranks ≡ g mod G) serves shards ≡ g (mod G).
	// The split happens before the signature phase — the grouping depends
	// only on rank and shard count, and the sub-communicators double as
	// the second hop of the tree broadcasts below.
	G := cfg.Shards
	if p := c.Size(); G > p {
		G = p
	}
	color := c.Rank() % G
	sub := c.Split(color)
	sub.AttachMetrics(reg)
	if tracer != nil {
		sub.AttachTracer(tracer)
	}

	// Phase 0: signatures, shard assignment, boundary candidates.
	tracer.Instant(trace.CatPipeline, "phase:shard_sig", "shards", int64(cfg.Shards), "", 0)
	sigSpan := reg.StartSpan("shard/sig")
	primary, posts := shardAssignments(c, sub, G, set, cfg, costs, reg)
	sigSpan.End()
	bndSpan := reg.StartSpan("shard/boundary_index")
	candidates, rawBoundary := boundaryCandidates(c, set, primary, posts, cfg, costs, reg)
	bndSpan.End()
	posts = shardPost{} // release the posting partition

	shardIDs := make([][]int, cfg.Shards)
	for i := 0; i < n; i++ {
		s := primary[i]
		shardIDs[s] = append(shardIDs[s], i)
	}

	// Phase 1: per-shard redundancy removal, then the boundary pass.
	tracer.Instant(trace.CatPipeline, "phase:rr", "", 0, "", 0)
	rrStart := c.Time()
	rrSpan := reg.StartSpan("rr")
	var myMask shardMask
	for s := color; s < cfg.Shards; s += G {
		ids := shardIDs[s]
		if len(ids) == 0 {
			continue
		}
		subSet, orig := set.Subset(ids)
		keepSub, st, perr := pace.RedundancyRemovalPhase(sub, subSet, pcfg, fmt.Sprintf("rr@s%d", s))
		if perr != nil {
			return nil, nil, nil, rrStats, ccStats, perr
		}
		if sub.Rank() == 0 {
			for j, k := range keepSub {
				if !k {
					myMask.Redundant = append(myMask.Redundant, int32(orig[j]))
				}
			}
			myMask.Stats = addStats(myMask.Stats, st)
			reg.Counter(metrics.Name("pace_shard_pairs", "shard", shardLabel(s))).Add(st.PairsGenerated)
		}
	}
	redundant := make([]bool, n)
	gatheredM := c.Gather(0, myMask)
	if c.Rank() == 0 {
		for _, g := range gatheredM {
			m := g.(shardMask)
			for _, id := range m.Redundant {
				redundant[id] = true
			}
			rrStats = addStats(rrStats, m.Stats)
		}
	}
	redundant = treeBcast(c, sub, G, redundant).([]bool)

	// Boundary RR: candidates whose sides both survived their shards are
	// aligned in place; positive verdicts replay on rank 0 in a canonical
	// order (container length desc, contained length desc, then IDs) so
	// the final mask is a pure function of the verdict set.
	var rrTasks []pace.PairItem
	for _, t := range candidates {
		if !redundant[t.A] && !redundant[t.B] {
			rrTasks = append(rrTasks, t)
		}
	}
	c.Advance(float64(len(candidates)) * costs.SecPerPairFilter)
	rrOut := pace.AlignContainPairs(c, set, rrTasks, pcfg, "rr@boundary")
	v := shardVerdicts{Raw: rawBoundary, Tasks: int64(len(rrTasks))}
	for _, o := range rrOut {
		v.Cells += o.Cells
		if o.OK {
			v.Results = append(v.Results, o)
		}
	}
	gatheredV := c.Gather(0, v)
	var demoted []int32
	if c.Rank() == 0 {
		var pos []pace.AlignOutcome
		for _, g := range gatheredV {
			gv := g.(shardVerdicts)
			rrStats.PairsRaw += gv.Raw
			rrStats.PairsGenerated += gv.Tasks
			rrStats.PairsAligned += gv.Tasks
			rrStats.PairsPositive += int64(len(gv.Results))
			rrStats.Cells += gv.Cells
			pos = append(pos, gv.Results...)
		}
		sort.Slice(pos, func(i, j int) bool {
			ci, di := containerContained(pos[i])
			cj, dj := containerContained(pos[j])
			li, lj := len(set.Get(int(ci)).Res), len(set.Get(int(cj)).Res)
			if li != lj {
				return li > lj
			}
			mi, mj := len(set.Get(int(di)).Res), len(set.Get(int(dj)).Res)
			if mi != mj {
				return mi > mj
			}
			if ci != cj {
				return ci < cj
			}
			return di < dj
		})
		for _, o := range pos {
			container, contained := containerContained(o)
			if !redundant[container] && !redundant[contained] {
				redundant[contained] = true
				demoted = append(demoted, contained)
			}
		}
	}
	// Every rank already holds the pre-replay mask; only the replay's
	// marks (a handful of IDs) need the wire.
	demoted = treeBcast(c, sub, G, demoted).([]int32)
	keep = make([]bool, n)
	for i := range keep {
		keep[i] = !redundant[i]
	}
	for _, id := range demoted {
		keep[id] = false
	}
	rrSpan.End()
	rrEnd := c.MaxFloat64(c.Time())
	if c.Rank() == 0 {
		rrStats.PhaseTime = rrEnd - rrStart
	}

	// Phase 2: per-shard connected components, then the boundary merge.
	tracer.Instant(trace.CatPipeline, "phase:ccd", "", 0, "", 0)
	ccStart := c.Time()
	ccdSpan := reg.StartSpan("ccd")
	var myEdges shardEdges
	for s := color; s < cfg.Shards; s += G {
		shardKeep := make([]bool, n)
		cnt := 0
		for _, i := range shardIDs[s] {
			if keep[i] {
				shardKeep[i] = true
				cnt++
			}
		}
		if cnt == 0 {
			continue
		}
		compS, _, st, perr := pace.ConnectedComponentsPhase(sub, set, shardKeep, pcfg, fmt.Sprintf("ccd@s%d", s))
		if perr != nil {
			return nil, nil, nil, rrStats, ccStats, perr
		}
		if sub.Rank() == 0 {
			for i, l := range compS {
				if l >= 0 && int32(i) != l {
					myEdges.From = append(myEdges.From, int32(i))
					myEdges.To = append(myEdges.To, l)
				}
			}
			myEdges.Stats = addStats(myEdges.Stats, st)
			reg.Counter(metrics.Name("pace_shard_pairs", "shard", shardLabel(s))).Add(st.PairsGenerated)
		}
	}
	gatheredE := c.Gather(0, myEdges)
	var uf *unionfind.UF
	interim := make([]int32, n)
	if c.Rank() == 0 {
		uf = unionfind.New(n)
		for _, g := range gatheredE {
			ge := g.(shardEdges)
			for k := range ge.From {
				uf.Union(int(ge.From[k]), int(ge.To[k]))
			}
			ccStats = addStats(ccStats, ge.Stats)
		}
		labelComponents(uf, keep, interim)
	}
	interim = treeBcast(c, sub, G, interim).([]int32)

	// Boundary CCD: cross-shard candidates joining two still-distinct
	// components are union edges after a positive overlap alignment.
	// Union–find merges commute, so the gather order cannot matter.
	var ccTasks []pace.PairItem
	for _, t := range candidates {
		if keep[t.A] && keep[t.B] && interim[t.A] != interim[t.B] {
			ccTasks = append(ccTasks, t)
		}
	}
	c.Advance(float64(len(candidates)) * costs.SecPerPairFilter)
	ccOut := pace.AlignOverlapPairs(c, set, ccTasks, pcfg, "ccd@boundary")
	vc := shardVerdicts{Raw: rawBoundary, Tasks: int64(len(ccTasks))}
	for _, o := range ccOut {
		vc.Cells += o.Cells
		if o.OK {
			vc.Results = append(vc.Results, o)
		}
	}
	gatheredV = c.Gather(0, vc)
	comp = make([]int32, n)
	if c.Rank() == 0 {
		for _, g := range gatheredV {
			gv := g.(shardVerdicts)
			ccStats.PairsGenerated += gv.Tasks
			ccStats.PairsAligned += gv.Tasks
			ccStats.PairsPositive += int64(len(gv.Results))
			ccStats.Cells += gv.Cells
			for _, o := range gv.Results {
				uf.Union(int(o.A), int(o.B))
			}
		}
		labelComponents(uf, keep, comp)
	}
	comp = treeBcast(c, sub, G, comp).([]int32)
	ccdSpan.End()
	ccEnd := c.MaxFloat64(c.Time())

	// Commitability: the kept-subset union–find, in the same sub-ID space
	// ConnectedComponentsFrom uses (kept IDs renumbered ascending).
	if c.Rank() == 0 {
		ccStats.PhaseTime = ccEnd - ccStart
		subOf := make(map[int]int, n)
		var kept []int
		for i := 0; i < n; i++ {
			if keep[i] {
				subOf[i] = len(kept)
				kept = append(kept, i)
			}
		}
		ccUF = unionfind.New(len(kept))
		for _, i := range kept {
			ccUF.Union(subOf[i], subOf[int(comp[i])])
		}
	}
	rrStats = c.Bcast(0, rrStats).(pace.Stats)
	ccStats = c.Bcast(0, ccStats).(pace.Stats)
	if c.Rank() == 0 {
		log.Info("sharded phases done",
			"shards", cfg.Shards, "groups", G,
			"boundary_tasks", len(rrTasks)+len(ccTasks), "t", c.Time())
	}
	return keep, comp, ccUF, rrStats, ccStats, nil
}

// containerContained orients an RR outcome: Which == 1 means B was the
// contained side (mirroring rrMaster.absorb).
func containerContained(o pace.AlignOutcome) (container, contained int32) {
	if o.Which == 1 {
		return o.A, o.B
	}
	return o.B, o.A
}

// labelComponents writes the canonical component labeling of uf into
// comp: every kept sequence gets the smallest kept member ID of its
// component (the first visit in ascending order is the smallest), every
// other sequence -1 — the exact labeling ConnectedComponentsFrom emits.
func labelComponents(uf *unionfind.UF, keep []bool, comp []int32) {
	for i := range comp {
		comp[i] = -1
	}
	rootLabel := make(map[int]int32)
	for i := range comp {
		if !keep[i] {
			continue
		}
		r := uf.Find(i)
		if _, ok := rootLabel[r]; !ok {
			rootLabel[r] = int32(i)
		}
		comp[i] = rootLabel[r]
	}
}
