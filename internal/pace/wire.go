package pace

import (
	"encoding/binary"
	"fmt"
	"math"

	"profam/internal/align"
	"profam/internal/mpi"
)

// Binary wire codec for the hot master–worker payloads.
//
// Gob spends bytes on field numbers and per-struct framing for every
// PairItem, and a phase ships tens of thousands of them. The binary frames
// below delta-encode consecutive rows with zigzag varints — pair streams
// are bursts of near-monotone ids and match lengths, so most deltas fit
// one byte — and ride through the TCP transport's rawFrame envelope (see
// mpi/codec.go). The encoding is pure layout: decoded messages are
// byte-for-byte the structs gob would have delivered
// (TestBinaryWireBytesReduction checks both that and the size win).

// Wire kinds identifying the frame payloads (mpi.BinaryPayload).
const (
	wireKindWorkerMsg byte = 'W'
	wireKindMasterMsg byte = 'M'
)

func appendZig(buf []byte, v int64) []byte {
	return binary.AppendUvarint(buf, uint64((v<<1)^(v>>63)))
}

func appendPairs(buf []byte, ps []PairItem) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ps)))
	var prev PairItem
	for _, p := range ps {
		buf = appendZig(buf, int64(p.A-prev.A))
		buf = appendZig(buf, int64(p.B-prev.B))
		buf = appendZig(buf, int64(p.Len-prev.Len))
		prev = p
	}
	return buf
}

// wireReader is a bounds-checked cursor over a binary frame body.
type wireReader struct {
	b []byte
}

func (r *wireReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		return 0, fmt.Errorf("pace: truncated varint in binary frame")
	}
	r.b = r.b[n:]
	return v, nil
}

func (r *wireReader) zig() (int64, error) {
	u, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	return int64(u>>1) ^ -int64(u&1), nil
}

func (r *wireReader) octet() (byte, error) {
	if len(r.b) == 0 {
		return 0, fmt.Errorf("pace: truncated binary frame")
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c, nil
}

// count reads a length prefix and sanity-checks it against the bytes
// remaining (each element needs at least minBytes), so a corrupt frame
// cannot provoke a huge allocation.
func (r *wireReader) count(minBytes int) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(len(r.b)/minBytes)+1 {
		return 0, fmt.Errorf("pace: binary frame claims %d elements in %d bytes", v, len(r.b))
	}
	return int(v), nil
}

func (r *wireReader) pairs() ([]PairItem, error) {
	n, err := r.count(3)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]PairItem, n)
	var prev PairItem
	for i := range out {
		var d [3]int64
		for j := range d {
			if d[j], err = r.zig(); err != nil {
				return nil, err
			}
		}
		prev = PairItem{A: prev.A + int32(d[0]), B: prev.B + int32(d[1]), Len: prev.Len + int32(d[2])}
		out[i] = prev
	}
	return out, nil
}

// Per-result flag bits: the verdict, a task the worker's replica skipped,
// and whether the CCD overlap counts follow the cell counts. A skipped
// task carries no fields beyond its IDs, so resultSkipped stands alone.
// Any other bit set, or resultSkipped combined with another, marks a
// frame from a different layout, which the decoder rejects rather than
// misreading the fields that follow. RR results never set resultCounts,
// so RR frames carry no count bytes at all.
const (
	resultOK      byte = 1
	resultSkipped byte = 2
	resultCounts  byte = 4
)

// WireKind implements mpi.BinaryPayload.
func (m WorkerMsg) WireKind() byte { return wireKindWorkerMsg }

// AppendBinary implements mpi.BinaryPayload.
func (m WorkerMsg) AppendBinary(buf []byte) []byte {
	var flags byte
	if m.Exhausted {
		flags = 1
	}
	buf = append(buf, flags)
	buf = appendPairs(buf, m.Pairs)
	buf = binary.AppendUvarint(buf, uint64(len(m.Results)))
	var prevA, prevB int32
	for _, r := range m.Results {
		buf = appendZig(buf, int64(r.A-prevA))
		buf = appendZig(buf, int64(r.B-prevB))
		prevA, prevB = r.A, r.B
		if r.Skipped {
			buf = append(buf, resultSkipped)
			continue
		}
		var f byte
		if r.OK {
			f = resultOK
		}
		hasCounts := r.Overlap != (align.OverlapCounts{})
		if hasCounts {
			f |= resultCounts
		}
		buf = append(buf, f)
		buf = appendZig(buf, int64(r.Stage))
		buf = binary.AppendUvarint(buf, uint64(r.Cells))
		buf = binary.AppendUvarint(buf, uint64(r.FullCells))
		if hasCounts {
			o := r.Overlap
			for _, v := range [4]int32{o.Positives, o.Cols, o.Span, o.LongLen} {
				buf = binary.AppendUvarint(buf, uint64(uint32(v)))
			}
		}
	}
	return buf
}

// overlapCounts reads the four counts a resultCounts outcome carries.
func (r *wireReader) overlapCounts() (align.OverlapCounts, error) {
	var v [4]int32
	for i := range v {
		u, err := r.uvarint()
		if err != nil {
			return align.OverlapCounts{}, err
		}
		if u > math.MaxInt32 {
			return align.OverlapCounts{}, fmt.Errorf("pace: overlap count %d out of range", u)
		}
		v[i] = int32(u)
	}
	return align.OverlapCounts{Positives: v[0], Cols: v[1], Span: v[2], LongLen: v[3]}, nil
}

func decodeWorkerMsg(body []byte) (any, error) {
	r := wireReader{b: body}
	flags, err := r.octet()
	if err != nil {
		return nil, err
	}
	var m WorkerMsg
	m.Exhausted = flags&1 != 0
	if m.Pairs, err = r.pairs(); err != nil {
		return nil, err
	}
	n, err := r.count(3)
	if err != nil {
		return nil, err
	}
	if n > 0 {
		m.Results = make([]AlignOutcome, n)
		var prevA, prevB int32
		for i := range m.Results {
			da, err := r.zig()
			if err != nil {
				return nil, err
			}
			db, err := r.zig()
			if err != nil {
				return nil, err
			}
			prevA += int32(da)
			prevB += int32(db)
			f, err := r.octet()
			if err != nil {
				return nil, err
			}
			if f&^(resultOK|resultSkipped|resultCounts) != 0 {
				return nil, fmt.Errorf("pace: result flag byte %#02x sets unknown bits", f)
			}
			if f&resultSkipped != 0 {
				if f != resultSkipped {
					return nil, fmt.Errorf("pace: result flag byte %#02x combines a skip with other bits", f)
				}
				m.Results[i] = AlignOutcome{A: prevA, B: prevB, Skipped: true}
				continue
			}
			stage, err := r.zig()
			if err != nil {
				return nil, err
			}
			if stage < int64(align.StageNone) || stage > int64(align.StageFull) {
				return nil, fmt.Errorf("pace: result stage %d is not a cascade stage", stage)
			}
			cells, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			full, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			m.Results[i] = AlignOutcome{
				A: prevA, B: prevB,
				OK: f&resultOK != 0, Stage: int8(stage),
				Cells: int64(cells), FullCells: int64(full),
			}
			if f&resultCounts != 0 {
				if m.Results[i].Overlap, err = r.overlapCounts(); err != nil {
					return nil, err
				}
			}
		}
	}
	return m, nil
}

// WireKind implements mpi.BinaryPayload.
func (m MasterMsg) WireKind() byte { return wireKindMasterMsg }

// AppendBinary implements mpi.BinaryPayload.
func (m MasterMsg) AppendBinary(buf []byte) []byte {
	var flags byte
	if m.Done {
		flags = 1
	}
	buf = append(buf, flags)
	buf = appendPairs(buf, m.Tasks)
	buf = binary.AppendUvarint(buf, uint64(len(m.Merges)))
	var prev Merge
	for _, g := range m.Merges {
		buf = appendZig(buf, int64(g.A-prev.A))
		buf = appendZig(buf, int64(g.B-prev.B))
		prev = g
	}
	return buf
}

func decodeMasterMsg(body []byte) (any, error) {
	r := wireReader{b: body}
	flags, err := r.octet()
	if err != nil {
		return nil, err
	}
	var m MasterMsg
	m.Done = flags&1 != 0
	if m.Tasks, err = r.pairs(); err != nil {
		return nil, err
	}
	n, err := r.count(2)
	if err != nil {
		return nil, err
	}
	if n > 0 {
		m.Merges = make([]Merge, n)
		var prev Merge
		for i := range m.Merges {
			da, err := r.zig()
			if err != nil {
				return nil, err
			}
			db, err := r.zig()
			if err != nil {
				return nil, err
			}
			prev = Merge{A: prev.A + int32(da), B: prev.B + int32(db)}
			m.Merges[i] = prev
		}
	}
	return m, nil
}

// registerBinaryCodecs hooks the compact frames into the TCP transport;
// called from RegisterWireTypes on every mesh participant.
func registerBinaryCodecs() {
	mpi.RegisterBinaryDecoder(wireKindWorkerMsg, decodeWorkerMsg)
	mpi.RegisterBinaryDecoder(wireKindMasterMsg, decodeMasterMsg)
}
