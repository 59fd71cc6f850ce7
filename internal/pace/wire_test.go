package pace

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"math/rand"
	"reflect"
	"testing"

	"profam/internal/align"
	"profam/internal/metrics"
	"profam/internal/mpi"
)

func randomWorkerMsg(rng *rand.Rand) WorkerMsg {
	var m WorkerMsg
	m.Exhausted = rng.Intn(2) == 0
	for i, n := 0, rng.Intn(40); i < n; i++ {
		m.Pairs = append(m.Pairs, PairItem{
			A: rng.Int31n(1 << 20), B: rng.Int31n(1 << 20),
			Len: rng.Int31n(512),
		})
	}
	for i, n := 0, rng.Intn(40); i < n; i++ {
		if rng.Intn(4) == 0 { // a task the worker's replica skipped
			m.Results = append(m.Results, AlignOutcome{
				A: rng.Int31n(1 << 20), B: rng.Int31n(1 << 20), Skipped: true})
			continue
		}
		m.Results = append(m.Results, AlignOutcome{
			A: rng.Int31n(1 << 20), B: rng.Int31n(1 << 20),
			OK: rng.Intn(2) == 0, Stage: int8(rng.Intn(4)),
			Cells: rng.Int63n(1 << 30), FullCells: rng.Int63n(1 << 30),
		})
		if rng.Intn(2) == 0 { // a CCD outcome
			m.Results[len(m.Results)-1].Overlap = align.OverlapCounts{
				Positives: rng.Int31n(1 << 12), Cols: rng.Int31n(1 << 12),
				Span: rng.Int31n(1 << 12), LongLen: rng.Int31(),
			}
		}
	}
	return m
}

func randomMasterMsg(rng *rand.Rand) MasterMsg {
	m := MasterMsg{Tasks: randomWorkerMsg(rng).Pairs, Done: rng.Intn(2) == 0}
	for i, n := 0, rng.Intn(20); i < n; i++ {
		m.Merges = append(m.Merges, Merge{A: rng.Int31n(1 << 20), B: rng.Int31n(1 << 20)})
	}
	return m
}

// TestWireRoundTrip: the binary frames must decode back to exactly the
// structs that went in — the codec is pure layout.
func TestWireRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		w := randomWorkerMsg(rng)
		got, err := decodeWorkerMsg(w.AppendBinary(nil))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !reflect.DeepEqual(got.(WorkerMsg), w) {
			t.Fatalf("trial %d: WorkerMsg round trip mismatch:\nin:  %+v\nout: %+v", trial, w, got)
		}

		m := randomMasterMsg(rng)
		gotM, err := decodeMasterMsg(m.AppendBinary(nil))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !reflect.DeepEqual(gotM.(MasterMsg), m) {
			t.Fatalf("trial %d: MasterMsg round trip mismatch:\nin:  %+v\nout: %+v", trial, m, gotM)
		}
	}
}

// TestWireTruncatedFrames: every truncation of a valid frame must error
// out, never panic or fabricate data.
func TestWireTruncatedFrames(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	w := randomWorkerMsg(rng)
	if len(w.Pairs) == 0 {
		w.Pairs = []PairItem{{A: 1, B: 2, Len: 3}}
	}
	full := w.AppendBinary(nil)
	for cut := 0; cut < len(full); cut++ {
		if _, err := decodeWorkerMsg(full[:cut]); err == nil {
			// A truncation can only be silently valid if it still parses
			// to the same message, which a strict prefix never can here.
			t.Fatalf("truncation to %d of %d bytes decoded without error", cut, len(full))
		}
	}
}

// TestWireCorruptCountRejected: a frame claiming an absurd element count
// must be rejected before any large allocation happens.
func TestWireCorruptCountRejected(t *testing.T) {
	if _, err := decodeWorkerMsg(corruptCountFrame()); err == nil {
		t.Fatal("absurd element count accepted")
	}
}

// resultFrame is a WorkerMsg frame carrying one outcome with the given
// raw flag byte, stage and trailing count fields, for the decoder's
// layout checks.
func resultFrame(flag byte, stage int64, counts ...uint64) []byte {
	buf := []byte{0}            // message flags
	buf = appendPairs(buf, nil) // no pairs
	buf = binary.AppendUvarint(buf, 1)
	buf = appendZig(buf, 1)
	buf = appendZig(buf, 2)
	buf = append(buf, flag)
	buf = appendZig(buf, stage)
	buf = binary.AppendUvarint(buf, 10)
	buf = binary.AppendUvarint(buf, 20)
	for _, c := range counts {
		buf = binary.AppendUvarint(buf, c)
	}
	return buf
}

// skipFrame is a WorkerMsg frame carrying one outcome with the given raw
// flag byte and nothing after it, the layout of a skipped task.
func skipFrame(flag byte) []byte {
	buf := []byte{0}            // message flags
	buf = appendPairs(buf, nil) // no pairs
	buf = binary.AppendUvarint(buf, 1)
	buf = appendZig(buf, 1)
	buf = appendZig(buf, 2)
	return append(buf, flag)
}

// TestWireMalformedResultRejected: an outcome whose flag byte sets a bit
// besides OK/Skipped/Counts, combines Skipped with another bit, or whose
// stage is not a cascade stage, comes from a different frame layout;
// decoding it would misread the fields after it. An outcome that
// announces counts must carry all four, each within int32. A skip is the
// two IDs and the flag byte, nothing more.
func TestWireMalformedResultRejected(t *testing.T) {
	got, err := decodeWorkerMsg(resultFrame(resultOK, int64(align.StageFull)))
	if err != nil {
		t.Fatalf("well-formed frame rejected: %v", err)
	}
	want := AlignOutcome{A: 1, B: 2, OK: true, Stage: int8(align.StageFull), Cells: 10, FullCells: 20}
	if r := got.(WorkerMsg).Results; len(r) != 1 || r[0] != want {
		t.Fatalf("decoded %+v, want [%+v]", r, want)
	}
	got, err = decodeWorkerMsg(resultFrame(resultOK|resultCounts, 0, 90, 100, 120, 130))
	if err != nil {
		t.Fatalf("well-formed frame with counts rejected: %v", err)
	}
	want = AlignOutcome{A: 1, B: 2, OK: true, Cells: 10, FullCells: 20,
		Overlap: align.OverlapCounts{Positives: 90, Cols: 100, Span: 120, LongLen: 130}}
	if r := got.(WorkerMsg).Results; len(r) != 1 || r[0] != want {
		t.Fatalf("decoded %+v, want [%+v]", r, want)
	}
	if _, err := decodeWorkerMsg(resultFrame(resultOK|resultCounts, 0, 90, 100, 120)); err == nil {
		t.Error("outcome with three of four counts accepted")
	}
	if _, err := decodeWorkerMsg(resultFrame(resultCounts, 0, 1, 1, 1<<31, 1)); err == nil {
		t.Error("count beyond int32 accepted")
	}
	for _, f := range []byte{0x08, 0x10, 0x80} {
		if _, err := decodeWorkerMsg(resultFrame(f|resultOK, int64(align.StageFull))); err == nil {
			t.Errorf("flag byte %#02x accepted", f|resultOK)
		}
	}
	got, err = decodeWorkerMsg(skipFrame(resultSkipped))
	if err != nil {
		t.Fatalf("well-formed skip rejected: %v", err)
	}
	want = AlignOutcome{A: 1, B: 2, Skipped: true}
	if r := got.(WorkerMsg).Results; len(r) != 1 || r[0] != want {
		t.Fatalf("decoded %+v, want [%+v]", r, want)
	}
	for _, f := range []byte{resultSkipped | resultOK, resultSkipped | resultCounts} {
		if _, err := decodeWorkerMsg(resultFrame(f, int64(align.StageFull))); err == nil {
			t.Errorf("skip combined into flag byte %#02x accepted", f)
		}
	}
	for _, st := range []int64{-1, int64(align.StageFull) + 1, int64(align.StageFull) + 2} {
		if _, err := decodeWorkerMsg(resultFrame(resultOK, st)); err == nil {
			t.Errorf("stage %d accepted", st)
		}
	}
}

// realisticWorkerMsg models what the phases actually ship: pair streams
// from the match-length-ordered generator are near-monotone in (A, B),
// and result batches come back in task order. This
// is the traffic shape the delta encoding is designed for.
func realisticWorkerMsg(rng *rand.Rand, batch int) WorkerMsg {
	var m WorkerMsg
	a := int32(rng.Intn(50))
	for i := 0; i < batch; i++ {
		a += int32(rng.Intn(3))
		m.Pairs = append(m.Pairs, PairItem{
			A: a, B: a + 1 + int32(rng.Intn(60)),
			Len: 8 + int32(rng.Intn(50)),
		})
	}
	a = int32(rng.Intn(50))
	for i := 0; i < batch; i++ {
		a += int32(rng.Intn(3))
		m.Results = append(m.Results, AlignOutcome{
			A: a, B: a + 1 + int32(rng.Intn(60)),
			OK: rng.Intn(3) > 0, Stage: int8(1 + rng.Intn(3)),
			Cells: int64(rng.Intn(20000)), FullCells: int64(10000 + rng.Intn(90000)),
		})
	}
	return m
}

// wireEnvelope stands in for the TCP transport's gob envelope when the
// test encodes messages with encoding/gob directly.
type wireEnvelope struct {
	From, Tag int
	Data      any
}

// TestBinaryWireBytesReduction: on realistic batch traffic over loopback
// TCP the compact frames must deliver exactly the structs plain gob
// delivers, in at most half the bytes — the codec's acceptance bar. The
// gob baseline is the same worker→master messages through one
// encoding/gob stream, which is what the transport would send without
// the frame path.
func TestBinaryWireBytesReduction(t *testing.T) {
	RegisterWireTypes()
	gob.Register(WorkerMsg{})

	rng := rand.New(rand.NewSource(11))
	batches := make([]WorkerMsg, 24)
	for i := range batches {
		batches[i] = realisticWorkerMsg(rng, 16+rng.Intn(48))
	}

	var bin int64
	received := make([]WorkerMsg, 0, len(batches))
	err := mpi.RunTCP(2, 0, func(c *mpi.Comm) {
		if c.Rank() == 1 {
			reg := metrics.New(1, c.Time)
			c.AttachMetrics(reg)
			for _, b := range batches {
				c.Send(0, tagWorker, b)
				m := c.Recv(0, tagMaster).Data.(MasterMsg)
				if len(m.Tasks) != len(b.Pairs) {
					panic("echo mismatch")
				}
			}
			bin = reg.Counter("mpi_bytes_sent{transport=tcp}").Value()
			return
		}
		for range batches {
			m := c.Recv(1, tagWorker).Data.(WorkerMsg)
			received = append(received, m)
			c.Send(1, tagMaster, MasterMsg{Tasks: m.Pairs})
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	var stream bytes.Buffer
	enc := gob.NewEncoder(&stream)
	for _, b := range batches {
		if err := enc.Encode(wireEnvelope{From: 1, Tag: tagWorker, Data: b}); err != nil {
			t.Fatal(err)
		}
	}
	gobBytes := int64(stream.Len())
	dec := gob.NewDecoder(&stream)
	for i := range batches {
		var env wireEnvelope
		if err := dec.Decode(&env); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(received[i], env.Data.(WorkerMsg)) {
			t.Fatalf("batch %d: binary frame and gob decode to different structs:\nbinary: %+v\ngob:    %+v",
				i, received[i], env.Data)
		}
	}

	ratio := float64(gobBytes) / float64(bin)
	t.Logf("worker->master wire bytes: gob=%d binary=%d (%.2fx)", gobBytes, bin, ratio)
	if ratio < 2 {
		t.Errorf("binary codec reduces wire bytes only %.2fx, want >= 2x", ratio)
	}
}

// corruptCountFrame claims 2^40 pairs in a 3-byte body.
func corruptCountFrame() []byte {
	buf := []byte{0}                                      // flags
	buf = append(buf, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20) // pairs count
	return append(buf, 1, 2, 3)
}

// FuzzWireDecode: frames arrive from the network, so on arbitrary bytes
// both decoders must either return an error or a message that re-encodes
// to a frame decoding back to the same message — never panic, and never
// allocate from an unchecked element count.
func FuzzWireDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	w := randomWorkerMsg(rng)
	w.Pairs = append(w.Pairs, PairItem{A: 1, B: 2, Len: 3})
	full := w.AppendBinary(nil)
	f.Add(full)
	for _, cut := range []int{0, 1, 2, len(full) / 3, len(full) / 2, len(full) - 1} {
		f.Add(full[:cut])
	}
	f.Add(corruptCountFrame())
	f.Add(MasterMsg{Tasks: w.Pairs, Done: true}.AppendBinary(nil))
	f.Add(randomMasterMsg(rng).AppendBinary(nil))
	f.Add(MasterMsg{Merges: []Merge{{A: 3, B: 9}, {A: 1, B: 2}}}.AppendBinary(nil))
	f.Add(skipFrame(resultSkipped))
	f.Add(skipFrame(resultSkipped | resultOK))
	f.Add(resultFrame(0x08, int64(align.StageFull)))
	f.Add(resultFrame(resultOK, int64(align.StageFull)+2))
	f.Add(resultFrame(resultOK|resultCounts, 0, 90, 100, 120, 130))
	f.Add(resultFrame(resultCounts, 0, 0, 0, 0, 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		for name, dec := range map[string]func([]byte) (any, error){
			"worker": decodeWorkerMsg, "master": decodeMasterMsg,
		} {
			v, err := dec(data)
			if err != nil {
				continue
			}
			again, err := dec(v.(mpi.BinaryPayload).AppendBinary(nil))
			if err != nil {
				t.Fatalf("%s: decoded message does not re-encode to a decodable frame: %v", name, err)
			}
			if !reflect.DeepEqual(v, again) {
				t.Fatalf("%s: re-encoded frame decodes differently:\nfirst:  %+v\nsecond: %+v", name, v, again)
			}
		}
	})
}
