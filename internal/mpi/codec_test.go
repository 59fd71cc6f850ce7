package mpi

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"testing"

	"profam/internal/metrics"
)

// codecPayload is a toy BinaryPayload: a slice of small deltas that gob
// would spend field headers on.
type codecPayload struct {
	Vals []int64
}

func (p codecPayload) WireKind() byte { return 0xC7 }

func (p codecPayload) AppendBinary(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(p.Vals)))
	for _, v := range p.Vals {
		buf = binary.AppendUvarint(buf, uint64(v))
	}
	return buf
}

func decodeCodecPayload(body []byte) (any, error) {
	n, k := binary.Uvarint(body)
	if k <= 0 {
		return nil, fmt.Errorf("bad count")
	}
	body = body[k:]
	p := codecPayload{Vals: make([]int64, n)}
	for i := range p.Vals {
		v, k := binary.Uvarint(body)
		if k <= 0 {
			return nil, fmt.Errorf("bad element")
		}
		body = body[k:]
		p.Vals[i] = int64(v)
	}
	return p, nil
}

// TestBinaryFrameTCPRoundTrip: a BinaryPayload sent over TCP arrives
// decoded back to the original value, and its frames are measurably
// smaller on the wire than the same messages gob-encoded directly.
func TestBinaryFrameTCPRoundTrip(t *testing.T) {
	RegisterType(codecPayload{})
	RegisterBinaryDecoder(codecPayload{}.WireKind(), decodeCodecPayload)

	vals := make([]int64, 256)
	for i := range vals {
		vals[i] = int64(i % 7)
	}
	want := fmt.Sprint(codecPayload{Vals: vals})

	var bytesSent int64
	err := RunTCP(2, 0, func(c *Comm) {
		if c.Rank() == 0 {
			reg := metrics.New(0, c.Time)
			c.AttachMetrics(reg)
			for i := 0; i < 4; i++ {
				c.Send(1, 5, codecPayload{Vals: vals})
			}
			bytesSent = reg.Counter("mpi_bytes_sent{transport=tcp}").Value()
			return
		}
		for i := 0; i < 4; i++ {
			m := c.Recv(0, 5)
			if got := fmt.Sprint(m.Data); got != want {
				panic(fmt.Sprintf("round trip mismatch: %s", got))
			}
			if m.Data.(codecPayload).Vals == nil {
				panic("payload lost its slice")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	// The gob baseline: the same four envelopes through one encoder, as
	// the transport would send them without the frame path.
	var gobBuf bytes.Buffer
	enc := gob.NewEncoder(&gobBuf)
	for i := 0; i < 4; i++ {
		if err := enc.Encode(wireMsg{From: 0, Tag: 5, Data: codecPayload{Vals: vals}}); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("wire bytes: gob=%d binary=%d", gobBuf.Len(), bytesSent)
	if bytesSent >= int64(gobBuf.Len()) {
		t.Errorf("binary frames not smaller: gob=%d binary=%d", gobBuf.Len(), bytesSent)
	}
}

// TestBinaryFrameUnregisteredKind: a frame with no registered decoder
// must produce a diagnosable error (the readLoop turns it into a
// mailbox poison), never a silent nil payload.
func TestBinaryFrameUnregisteredKind(t *testing.T) {
	if v, err := decodeBinaryFrame(rawFrame{Kind: 0xC9, Body: []byte{1, 2}}); err == nil {
		t.Fatalf("unregistered kind decoded to %v", v)
	}
	RegisterBinaryDecoder(0xC9, func(body []byte) (any, error) {
		return nil, fmt.Errorf("kind 0xC9 refuses %d bytes", len(body))
	})
	if _, err := decodeBinaryFrame(rawFrame{Kind: 0xC9, Body: []byte{1, 2}}); err == nil {
		t.Fatal("decoder error was swallowed")
	}
}
