package mpi

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// meshHandshakeTimeout bounds the accept/handshake phase of DialMesh.
// Dial retries exhaust after ~5 s, so a rank whose peer failed to start
// errors out shortly after instead of blocking in Accept forever.
const meshHandshakeTimeout = 15 * time.Second

// wireMsg is the gob envelope exchanged over TCP. Data is the payload
// itself, gob-encoded, so its dynamic type must be registered with
// RegisterType on every rank.
type wireMsg struct {
	From int
	Tag  int
	Data any
}

// RegisterType makes a payload type transferable over the TCP transport
// (a thin wrapper over gob.Register so callers need not import
// encoding/gob themselves). Inproc and simtime transports need no
// registration.
func RegisterType(v any) { gob.Register(v) }

// countWriter measures the bytes a gob encoder actually puts on the
// socket, so mpi_bytes_sent{transport=tcp} reports wire truth rather
// than the payloadBytes estimate. Guarded by the owning peer's mutex.
type countWriter struct {
	w io.Writer
	n int64
}

func (cw *countWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// countReader is the receive-side twin; only the peer's readLoop
// goroutine touches n.
type countReader struct {
	r io.Reader
	n int64
}

func (cr *countReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n += int64(n)
	return n, err
}

// tcpPeer is one outgoing edge of the mesh. Each peer owns its encoder
// and lock so concurrent sends to different peers never serialize on a
// shared mutex.
type tcpPeer struct {
	mu   sync.Mutex // guards enc + cw
	enc  *gob.Encoder
	cw   *countWriter
	conn net.Conn
}

// tcpTransport is one rank's endpoint of a fully connected TCP mesh.
type tcpTransport struct {
	r, n  int
	start time.Time
	box   *mailbox
	peers []*tcpPeer
}

func (t *tcpTransport) rank() int    { return t.r }
func (t *tcpTransport) size() int    { return t.n }
func (t *tcpTransport) name() string { return "tcp" }

func (t *tcpTransport) send(to, tag int, data any) int {
	if to == t.r {
		t.box.put(Message{From: t.r, Tag: tag, Data: data})
		return payloadBytes(data)
	}
	p := t.peers[to]
	p.mu.Lock()
	before := p.cw.n
	err := p.enc.Encode(wireMsg{From: t.r, Tag: tag, Data: data})
	sent := p.cw.n - before
	p.mu.Unlock()
	if err != nil {
		panic(fmt.Sprintf("mpi: tcp send rank %d -> %d: %v", t.r, to, err))
	}
	return int(sent)
}

func (t *tcpTransport) recv(from, tag int) Message { return t.box.take(from, tag) }
func (t *tcpTransport) advance(float64)            {}
func (t *tcpTransport) time() float64              { return time.Since(t.start).Seconds() }

// readLoop pumps messages from one peer. It must use the same Decoder
// that read the handshake: gob decoders buffer ahead, so a second decoder
// on the same connection would lose bytes. A read or decode error, EOF
// included, marks the peer lost: a peer closes its end when it leaves the
// job, and also when it dies, so a receive that only it could satisfy
// fails.
func (t *tcpTransport) readLoop(peer int, dec *gob.Decoder, cr *countReader) {
	for {
		before := cr.n
		var m wireMsg
		if err := dec.Decode(&m); err != nil {
			t.box.lose(peer, err)
			return
		}
		t.box.put(Message{From: m.From, Tag: m.Tag, Data: m.Data, wire: int(cr.n - before)})
	}
}

func (t *tcpTransport) close() {
	for _, p := range t.peers {
		if p != nil && p.conn != nil {
			p.conn.Close()
		}
	}
}

// DialMesh builds a fully connected TCP mesh for rank r of n given the
// listen addresses of all ranks (addrs[i] is rank i's host:port). Each
// rank listens on addrs[r], accepts connections from lower ranks, and
// dials higher ranks. The returned cleanup must be called after the rank
// function finishes.
//
// The handshake is: dialer sends its rank as the first gob value.
func DialMesh(r int, addrs []string) (*Comm, func(), error) {
	ln, err := net.Listen("tcp", addrs[r])
	if err != nil {
		return nil, nil, fmt.Errorf("mpi: rank %d listen %s: %w", r, addrs[r], err)
	}
	return dialMesh(r, ln, addrs)
}

// dialMesh is DialMesh on a listener already bound to addrs[r]; it owns
// ln from here on.
func dialMesh(r int, ln net.Listener, addrs []string) (*Comm, func(), error) {
	n := len(addrs)
	t := &tcpTransport{
		r: r, n: n,
		start: time.Now(),
		box:   newMailbox(),
		peers: make([]*tcpPeer, n),
	}
	decs := make([]*gob.Decoder, n)
	crs := make([]*countReader, n)
	conns := make([]net.Conn, n)

	var wg sync.WaitGroup
	var firstErr error
	var errMu sync.Mutex
	setErr := func(e error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = e
		}
		errMu.Unlock()
	}

	// Accept connections from all lower ranks. The wait is bounded: a
	// peer whose own setup failed (listen collision, dial exhaustion)
	// never connects, and an unbounded Accept would deadlock the whole
	// mesh on one rank's error. Dialers give up after ~5 s of retries,
	// so a deadline comfortably above that converts the deadlock into an
	// error the caller sees.
	wg.Add(1)
	go func() {
		defer wg.Done()
		deadline := time.Now().Add(meshHandshakeTimeout)
		ln.(*net.TCPListener).SetDeadline(deadline)
		defer ln.(*net.TCPListener).SetDeadline(time.Time{})
		for i := 0; i < r; i++ {
			conn, err := ln.Accept()
			if err != nil {
				setErr(fmt.Errorf("mpi: rank %d accept: %w", r, err))
				return
			}
			conn.SetReadDeadline(deadline)
			cr := &countReader{r: conn}
			dec := gob.NewDecoder(cr)
			var peer int
			if err := dec.Decode(&peer); err != nil {
				setErr(fmt.Errorf("mpi: rank %d handshake: %w", r, err))
				return
			}
			conn.SetReadDeadline(time.Time{})
			conns[peer] = conn
			decs[peer] = dec
			crs[peer] = cr
		}
	}()

	// Dial all higher ranks (with retries while peers start up).
	for peer := r + 1; peer < n; peer++ {
		wg.Add(1)
		go func(peer int) {
			defer wg.Done()
			var conn net.Conn
			var err error
			for attempt := 0; attempt < 100; attempt++ {
				conn, err = net.Dial("tcp", addrs[peer])
				if err == nil {
					// TCP simultaneous-open hazard: dialing a port in the
					// kernel's ephemeral range before the peer's listener is
					// up can self-connect (local == remote address). The
					// "connection" looks established but the peer's Accept
					// never fires, deadlocking the mesh handshake — drop it
					// and retry like any refused dial.
					if conn.LocalAddr().String() == conn.RemoteAddr().String() {
						conn.Close()
						conn = nil
						err = fmt.Errorf("mpi: rank %d self-connected dialing %s", r, addrs[peer])
					} else {
						break
					}
				}
				time.Sleep(50 * time.Millisecond)
			}
			if err != nil {
				setErr(fmt.Errorf("mpi: rank %d dial rank %d: %w", r, peer, err))
				return
			}
			cw := &countWriter{w: conn}
			enc := gob.NewEncoder(cw)
			if err := enc.Encode(r); err != nil {
				setErr(fmt.Errorf("mpi: rank %d handshake to %d: %w", r, peer, err))
				return
			}
			conns[peer] = conn
			t.peers[peer] = &tcpPeer{enc: enc, cw: cw, conn: conn}
		}(peer)
	}
	wg.Wait()
	if firstErr != nil {
		ln.Close()
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
		return nil, nil, firstErr
	}

	for peer, conn := range conns {
		if peer == r || conn == nil {
			continue
		}
		if t.peers[peer] == nil { // accepted connection: writer not yet set up
			cw := &countWriter{w: conn}
			t.peers[peer] = &tcpPeer{enc: gob.NewEncoder(cw), cw: cw, conn: conn}
		}
		if decs[peer] == nil { // dialed connection: reader not yet set up
			crs[peer] = &countReader{r: conn}
			decs[peer] = gob.NewDecoder(crs[peer])
		}
		go t.readLoop(peer, decs[peer], crs[peer])
	}

	cleanup := func() {
		ln.Close()
		t.close()
	}
	return &Comm{tr: t}, cleanup, nil
}

// RunTCP executes f on p ranks connected over loopback TCP, one goroutine
// per rank, blocking until all finish. It exercises the genuine
// socket/RPC path inside a single process; multi-process deployments use
// DialMesh directly with one rank per process. Rank i listens on port
// basePort+i; basePort 0 lets the kernel pick free ports instead.
func RunTCP(p int, basePort int, f func(c *Comm)) error {
	lns := make([]net.Listener, p)
	addrs := make([]string, p)
	for i := range lns {
		port := 0
		if basePort != 0 {
			port = basePort + i
		}
		ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port))
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return fmt.Errorf("mpi: rank %d listen: %w", i, err)
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer func() {
				if e := recover(); e != nil {
					if err, ok := e.(error); ok {
						errs[r] = fmt.Errorf("mpi: tcp rank %d panicked: %w", r, err)
					} else {
						errs[r] = fmt.Errorf("mpi: tcp rank %d panicked: %v", r, e)
					}
				}
			}()
			c, cleanup, err := dialMesh(r, lns[r], addrs)
			if err != nil {
				errs[r] = err
				return
			}
			defer cleanup()
			f(c)
			// Drain grace: give in-flight messages to peers time to land
			// before tearing the sockets down.
			c.Barrier()
		}(r)
	}
	wg.Wait()
	// A rank that fails closes its connections, so its peers' lost-peer
	// errors only echo its own: report the lowest rank's other error,
	// else the lowest rank's.
	for _, err := range errs {
		if err != nil && !errors.Is(err, errPeerLost) {
			return err
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
