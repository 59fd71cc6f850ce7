package mpi

import (
	"encoding/gob"
	"fmt"
	"sync"
)

// BinaryPayload is implemented by hot message payloads that can encode
// themselves into a compact binary frame (varint/delta encoded). The TCP
// transport always sends such payloads as frames, bypassing gob's
// per-field framing; everything else goes through gob. The in-memory
// transports are unaffected (no serialization happens there).
// AppendBinary must append a self-delimiting encoding to buf and return
// the extended slice; a decoder for the same kind must be registered
// with RegisterBinaryDecoder on every participating process.
type BinaryPayload interface {
	WireKind() byte
	AppendBinary(buf []byte) []byte
}

// rawFrame carries a binary-encoded payload through the gob envelope.
// Wrapping keeps the existing stream framing (gob decoders buffer ahead,
// so raw bytes cannot be interleaved on the same connection) while the
// body bypasses per-field reflection entirely.
type rawFrame struct {
	Kind byte
	Body []byte
}

func init() { gob.Register(rawFrame{}) }

var (
	binDecMu  sync.RWMutex
	binDecode = map[byte]func([]byte) (any, error){}
)

// RegisterBinaryDecoder installs the decoder for a BinaryPayload kind.
// Like gob.Register it is meant for setup time; re-registering a kind
// replaces the decoder.
func RegisterBinaryDecoder(kind byte, dec func([]byte) (any, error)) {
	binDecMu.Lock()
	binDecode[kind] = dec
	binDecMu.Unlock()
}

func decodeBinaryFrame(f rawFrame) (any, error) {
	binDecMu.RLock()
	dec := binDecode[f.Kind]
	binDecMu.RUnlock()
	if dec == nil {
		return nil, fmt.Errorf("mpi: no binary decoder registered for wire kind 0x%02x", f.Kind)
	}
	return dec(f.Body)
}

// wireBufPool recycles encode scratch buffers so steady-state sends do
// not allocate.
var wireBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}
