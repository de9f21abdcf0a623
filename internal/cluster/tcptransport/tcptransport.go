// Package tcptransport runs the cluster ring schedule over real TCP
// sockets: each rank owns a listener that accepts exactly its ring
// predecessor and a dialed connection to its ring successor.  Connections
// handshake (magic, version, ring id, sender rank, connection generation),
// every send carries a write deadline and survives transient link loss
// through bounded exponential-backoff reconnects, and a heartbeat-based
// failure detector declares a silent peer dead — mapping it onto the same
// rank-failure path the in-process transport reports through Abort/Dead,
// so the fleet can re-form the ring over the survivors.
//
// The wire format is deliberately small (see DESIGN.md, "Cross-host ring
// transport"): length-prefixed float64 chunks plus one-byte-typed barrier
// tokens and heartbeats.  Bitwise reproducibility needs nothing more —
// float64 bits cross the wire verbatim in little-endian order, so a
// TCP-loopback ring reduces to exactly the same bits as the in-process
// channel ring.
package tcptransport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"fekf/internal/cluster"
)

// Wire protocol constants.
const (
	magic   = 0x46454b46 // "FEKF"
	version = 1

	frameData      = 1
	frameBarrier   = 2
	frameHeartbeat = 3

	barrierGather  = 0
	barrierRelease = 1
)

// SendTimeout is the per-frame write deadline, and the handshake's.
const SendTimeout = 5 * time.Second

// BackoffMax caps the exponential reconnect backoff.
const BackoffMax = 250 * time.Millisecond

// Options tunes one ring's TCP endpoints.  The zero value gets defaults
// suitable for loopback fleets; fault-injection tests shrink the timeouts.
// A data Recv has no deadline of its own: TCP does not lose frames on a
// live connection, so a lost peer is found by PeerTimeout.
type Options struct {
	// RingID names the ring; handshakes from another ring are rejected.
	RingID string
	// DialTimeout bounds each connection attempt (default 2s).
	DialTimeout time.Duration
	// PeerTimeout is the failure detector: no frame (data, token or
	// heartbeat) from the predecessor for this long, or a barrier token
	// overdue by it, declares the peer dead (default 10s).  An idle link
	// sends four heartbeats per PeerTimeout.
	PeerTimeout time.Duration
	// RetryMax is the send attempt budget, reconnects included (default 4).
	RetryMax int
	// BackoffBase is the first reconnect backoff, doubled per attempt up
	// to BackoffMax (default 5ms).
	BackoffBase time.Duration
	// StartupGrace extends the first accept's deadline so a peer process
	// that boots slowly is not declared dead (default 30s).
	StartupGrace time.Duration
	// OnPeerDeath, when non-nil, runs once per rank declared dead.
	OnPeerDeath func(rank int, cause error)
}

func (o Options) withDefaults() Options {
	if o.RingID == "" {
		o.RingID = "fekf"
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 2 * time.Second
	}
	if o.PeerTimeout <= 0 {
		o.PeerTimeout = 10 * time.Second
	}
	if o.RetryMax < 1 {
		o.RetryMax = 4
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 5 * time.Millisecond
	}
	if o.StartupGrace <= 0 {
		o.StartupGrace = 30 * time.Second
	}
	return o
}

type barToken struct {
	phase byte
	gen   uint64
}

// Endpoint is one rank's TCP transport endpoint.  In a cross-process ring
// each process owns exactly one Endpoint; it implements cluster.Transport
// for its own rank (operations naming another rank error out).  In-process
// rings use Group, which fans the interface out over n Endpoints.
type Endpoint struct {
	rank, size int
	opts       Options
	ln         net.Listener
	nextAddr   string

	// dialed connection to the ring successor, guarded by sendMu
	sendMu     sync.Mutex
	conn       net.Conn
	genOut     uint64
	everDialed bool
	wbuf       []byte

	// frames from the ring predecessor, demultiplexed by the reader
	dataCh chan []float64
	barCh  chan barToken
	// rotating decode buffers: the lockstep schedule has at most one data
	// frame outstanding per link, so two buffers never overwrite a chunk
	// the consumer still holds.
	rbuf    [2][]float64
	rbufIdx int

	// Barrier is called by the rank's single collective goroutine.
	barrierGen uint64

	mu       sync.Mutex
	broken   bool
	cause    error
	dead     []int
	brokenCh chan struct{}
	closed   bool
	// accepted is the live inbound connection, tracked so Close and
	// breakLocal can interrupt a blocked read instead of waiting out its
	// deadline.
	accepted net.Conn
	// onAbort cascades a detected failure (set by Group; nil standalone).
	onAbort func(rank int, cause error)

	wg sync.WaitGroup

	bytesSent  atomic.Int64
	bytesRecv  atomic.Int64
	msgs       atomic.Int64
	retries    atomic.Int64
	reconnects atomic.Int64
	heartbeats atomic.Int64
	peerFails  atomic.Int64
}

// NewEndpoint builds rank's endpoint of a size-rank ring: ln accepts the
// ring predecessor's connection, nextAddr is the successor's listen
// address.  The endpoint starts its acceptor and heartbeat loops
// immediately; the first Send dials lazily.
func NewEndpoint(rank, size int, ln net.Listener, nextAddr string, opts Options) *Endpoint {
	if size < 1 || rank < 0 || rank >= size {
		panic(fmt.Sprintf("tcptransport: bad rank %d of %d", rank, size))
	}
	e := &Endpoint{
		rank:     rank,
		size:     size,
		opts:     opts.withDefaults(),
		ln:       ln,
		nextAddr: nextAddr,
		dataCh:   make(chan []float64, 4),
		barCh:    make(chan barToken, 4),
		brokenCh: make(chan struct{}),
	}
	e.wg.Add(1)
	go e.acceptLoop()
	if size > 1 {
		e.wg.Add(1)
		go e.heartbeatLoop()
	}
	return e
}

// Listen binds a loopback listener for one rank (port 0 = random).
func Listen(addr string) (net.Listener, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	return net.Listen("tcp", addr)
}

func (e *Endpoint) next() int { return (e.rank + 1) % e.size }
func (e *Endpoint) prev() int { return (e.rank - 1 + e.size) % e.size }

// Addr returns the endpoint's listen address.
func (e *Endpoint) Addr() string { return e.ln.Addr().String() }

// Size returns the ring's rank count.
func (e *Endpoint) Size() int { return e.size }

func (e *Endpoint) checkRank(rank int) error {
	if rank != e.rank {
		return fmt.Errorf("tcptransport: endpoint owns rank %d, not %d", e.rank, rank)
	}
	return nil
}

// Send implements cluster.Transport for the endpoint's own rank.
func (e *Endpoint) Send(rank int, chunk []float64) error {
	if err := e.checkRank(rank); err != nil {
		return err
	}
	return e.sendChunk(chunk)
}

// Recv implements cluster.Transport for the endpoint's own rank.
func (e *Endpoint) Recv(rank int) ([]float64, error) {
	if err := e.checkRank(rank); err != nil {
		return nil, err
	}
	return e.recvChunk()
}

// Barrier implements cluster.Transport for the endpoint's own rank.
func (e *Endpoint) Barrier(rank int) error {
	if err := e.checkRank(rank); err != nil {
		return err
	}
	return e.barrier()
}

// Abort declares rank dead and breaks the ring locally (and through the
// group, when the endpoint belongs to one).
func (e *Endpoint) Abort(rank int, cause error) { e.abort(rank, cause) }

// Dead returns the ranks this endpoint has declared dead.
func (e *Endpoint) Dead() []int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]int(nil), e.dead...)
}

// Stats returns the endpoint's measured wire counters.
func (e *Endpoint) Stats() cluster.TransportStats {
	return cluster.TransportStats{
		Kind:         "tcp",
		BytesSent:    e.bytesSent.Load(),
		BytesRecv:    e.bytesRecv.Load(),
		Msgs:         e.msgs.Load(),
		Retries:      e.retries.Load(),
		Reconnects:   e.reconnects.Load(),
		Heartbeats:   e.heartbeats.Load(),
		PeerFailures: e.peerFails.Load(),
	}
}

// CutConn severs the dialed connection to the successor without declaring
// anyone dead — the next send reconnects.  Implements cluster.ConnCutter
// for deterministic transient-fault injection.
func (e *Endpoint) CutConn(rank int) {
	if rank != e.rank {
		return
	}
	e.sendMu.Lock()
	if e.conn != nil {
		e.conn.Close()
		e.conn = nil
	}
	e.sendMu.Unlock()
}

// Close tears the endpoint down: the listener and connections close, the
// loops exit, and blocked operations fail.  Close on an already-broken or
// closed endpoint is a no-op.
func (e *Endpoint) Close() error {
	e.mu.Lock()
	already := e.closed
	e.closed = true
	if !e.broken {
		e.broken = true
		e.cause = errors.New("transport closed")
		close(e.brokenCh)
	}
	e.mu.Unlock()
	if already {
		return nil
	}
	e.closeConns()
	e.wg.Wait()
	return nil
}

// closeConns tears down the listener and both directions' connections,
// interrupting any blocked read or write.
func (e *Endpoint) closeConns() {
	e.ln.Close()
	e.mu.Lock()
	if e.accepted != nil {
		e.accepted.Close()
	}
	e.mu.Unlock()
	e.sendMu.Lock()
	if e.conn != nil {
		e.conn.Close()
		e.conn = nil
	}
	e.sendMu.Unlock()
}

// err returns the broken-ring error wrapping the recorded cause.
func (e *Endpoint) err() error {
	e.mu.Lock()
	cause := e.cause
	e.mu.Unlock()
	if cause == nil {
		cause = errors.New("aborted")
	}
	return fmt.Errorf("%w: %s", cluster.ErrRingBroken, cause)
}

// breakLocal breaks this endpoint without cascading (group internal).
func (e *Endpoint) breakLocal(rank int, cause error) {
	e.mu.Lock()
	if !e.broken {
		e.broken = true
		e.cause = cause
		close(e.brokenCh)
	}
	if rank >= 0 {
		seen := false
		for _, d := range e.dead {
			if d == rank {
				seen = true
				break
			}
		}
		if !seen {
			e.dead = append(e.dead, rank)
		}
	}
	e.mu.Unlock()
	e.closeConns()
}

// abort records a detected failure and cascades it.
func (e *Endpoint) abort(rank int, cause error) {
	e.mu.Lock()
	onAbort := e.onAbort
	e.mu.Unlock()
	if rank >= 0 {
		e.peerFails.Add(1)
	}
	if onAbort != nil {
		onAbort(rank, cause) // group: break every endpoint, notify once
		return
	}
	e.breakLocal(rank, cause)
	if e.opts.OnPeerDeath != nil && rank >= 0 {
		e.opts.OnPeerDeath(rank, cause)
	}
}

func (e *Endpoint) isBroken() bool {
	select {
	case <-e.brokenCh:
		return true
	default:
		return false
	}
}

// ---- sender side -----------------------------------------------------

// ensureConn dials the successor and handshakes, under sendMu.
func (e *Endpoint) ensureConn() error {
	if e.conn != nil {
		return nil
	}
	if e.nextAddr == "" {
		return errors.New("tcptransport: successor address unknown")
	}
	conn, err := net.DialTimeout("tcp", e.nextAddr, e.opts.DialTimeout)
	if err != nil {
		return err
	}
	if e.everDialed {
		e.reconnects.Add(1)
	}
	e.everDialed = true
	e.genOut++
	if err := e.handshake(conn); err != nil {
		conn.Close()
		return err
	}
	e.conn = conn
	return nil
}

// handshake identifies this rank and connection generation to the
// acceptor and waits for its verdict.
func (e *Endpoint) handshake(conn net.Conn) error {
	id := []byte(e.opts.RingID)
	hs := make([]byte, 0, 4+1+2+len(id)+4+8)
	hs = binary.LittleEndian.AppendUint32(hs, magic)
	hs = append(hs, version)
	hs = binary.LittleEndian.AppendUint16(hs, uint16(len(id)))
	hs = append(hs, id...)
	hs = binary.LittleEndian.AppendUint32(hs, uint32(e.rank))
	hs = binary.LittleEndian.AppendUint64(hs, e.genOut)
	conn.SetDeadline(time.Now().Add(SendTimeout))
	if _, err := conn.Write(hs); err != nil {
		return fmt.Errorf("handshake write: %w", err)
	}
	e.bytesSent.Add(int64(len(hs)))
	var verdict [1]byte
	if _, err := io.ReadFull(conn, verdict[:]); err != nil {
		return fmt.Errorf("handshake verdict: %w", err)
	}
	e.bytesRecv.Add(1)
	conn.SetDeadline(time.Time{})
	if verdict[0] != 1 {
		return fmt.Errorf("handshake rejected by rank %d", e.next())
	}
	return nil
}

// writeFrame assembles and writes one frame under sendMu with the send
// deadline, without retries (sendChunk owns the retry loop).
func (e *Endpoint) writeFrame(kind byte, payload func([]byte) []byte) error {
	if err := e.ensureConn(); err != nil {
		return err
	}
	e.wbuf = append(e.wbuf[:0], kind)
	if payload != nil {
		e.wbuf = payload(e.wbuf)
	}
	e.conn.SetWriteDeadline(time.Now().Add(SendTimeout))
	n, err := e.conn.Write(e.wbuf)
	e.bytesSent.Add(int64(n))
	if err != nil {
		e.conn.Close()
		e.conn = nil
		return err
	}
	return nil
}

// sendFrame writes one frame with bounded retries and exponential-backoff
// reconnects; exhausting the budget declares the successor dead.
func (e *Endpoint) sendFrame(kind byte, payload func([]byte) []byte) error {
	e.sendMu.Lock()
	var last error
	for attempt := 0; attempt < e.opts.RetryMax; attempt++ {
		if e.isBroken() {
			e.sendMu.Unlock()
			return e.err()
		}
		if attempt > 0 {
			e.retries.Add(1)
			backoff := e.opts.BackoffBase << (attempt - 1)
			if backoff > BackoffMax {
				backoff = BackoffMax
			}
			time.Sleep(backoff)
		}
		if last = e.writeFrame(kind, payload); last == nil {
			e.msgs.Add(1)
			e.sendMu.Unlock()
			return nil
		}
	}
	// abort tears connections down, which re-takes sendMu: release first.
	e.sendMu.Unlock()
	cause := fmt.Errorf("rank %d unreachable after %d attempts: %v", e.next(), e.opts.RetryMax, last)
	e.abort(e.next(), cause)
	return e.err()
}

func (e *Endpoint) sendChunk(chunk []float64) error {
	return e.sendFrame(frameData, func(b []byte) []byte {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(chunk)))
		for _, v := range chunk {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	})
}

func (e *Endpoint) sendBarrier(phase byte, gen uint64) error {
	return e.sendFrame(frameBarrier, func(b []byte) []byte {
		b = append(b, phase)
		return binary.LittleEndian.AppendUint64(b, gen)
	})
}

// heartbeatLoop keeps the link to the successor warm and its failure
// detector fed while the ring idles between collectives.
func (e *Endpoint) heartbeatLoop() {
	defer e.wg.Done()
	tick := time.NewTicker(e.opts.PeerTimeout / 4)
	defer tick.Stop()
	for {
		select {
		case <-e.brokenCh:
			return
		case <-tick.C:
		}
		// Best effort: never queue behind an in-flight send (the send is
		// the heartbeat then), never retry (the next tick is the retry).
		if !e.sendMu.TryLock() {
			continue
		}
		if !e.isBroken() {
			if err := e.writeFrame(frameHeartbeat, nil); err == nil {
				e.heartbeats.Add(1)
			}
		}
		e.sendMu.Unlock()
	}
}

// ---- receiver side ---------------------------------------------------

// acceptLoop owns the inbound side: accept the predecessor, validate its
// handshake, then demultiplex frames until the connection drops — and
// re-accept after a drop.  Silence past the deadline declares the
// predecessor dead.
func (e *Endpoint) acceptLoop() {
	defer e.wg.Done()
	var lastGenIn uint64
	first := true
	for {
		deadline := e.opts.PeerTimeout
		if first {
			deadline += e.opts.StartupGrace
		}
		if d, ok := e.ln.(interface{ SetDeadline(time.Time) error }); ok {
			d.SetDeadline(time.Now().Add(deadline))
		}
		conn, err := e.ln.Accept()
		if err != nil {
			if e.isBroken() {
				return
			}
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				e.abort(e.prev(), fmt.Errorf("no connection from rank %d within %v", e.prev(), deadline))
				return
			}
			// listener failed for good
			e.abort(-1, fmt.Errorf("accept: %w", err))
			return
		}
		gen, err := e.acceptHandshake(conn, lastGenIn)
		if err != nil {
			conn.Close()
			continue // stale or foreign dialer; keep listening
		}
		lastGenIn = gen
		first = false
		e.mu.Lock()
		e.accepted = conn
		e.mu.Unlock()
		err = e.readLoop(conn)
		e.mu.Lock()
		e.accepted = nil
		e.mu.Unlock()
		if err != nil {
			return // peer declared dead or endpoint broken
		}
		// connection dropped cleanly — wait for the reconnect
	}
}

// acceptHandshake validates an inbound connection: right ring, right rank
// (the predecessor), fresh generation.
func (e *Endpoint) acceptHandshake(conn net.Conn, lastGen uint64) (uint64, error) {
	conn.SetReadDeadline(time.Now().Add(e.opts.PeerTimeout))
	var fixed [7]byte // magic + version + id length
	if _, err := io.ReadFull(conn, fixed[:]); err != nil {
		return 0, err
	}
	e.bytesRecv.Add(7)
	if binary.LittleEndian.Uint32(fixed[0:4]) != magic || fixed[4] != version {
		return 0, errors.New("bad magic/version")
	}
	idLen := int(binary.LittleEndian.Uint16(fixed[5:7]))
	rest := make([]byte, idLen+4+8)
	if _, err := io.ReadFull(conn, rest); err != nil {
		return 0, err
	}
	e.bytesRecv.Add(int64(len(rest)))
	reject := func(why string) (uint64, error) {
		conn.SetWriteDeadline(time.Now().Add(SendTimeout))
		conn.Write([]byte{0})
		return 0, errors.New(why)
	}
	if string(rest[:idLen]) != e.opts.RingID {
		return reject("foreign ring id")
	}
	senderRank := int(binary.LittleEndian.Uint32(rest[idLen : idLen+4]))
	if senderRank != e.prev() {
		return reject(fmt.Sprintf("rank %d dialed, want predecessor %d", senderRank, e.prev()))
	}
	gen := binary.LittleEndian.Uint64(rest[idLen+4:])
	if gen <= lastGen {
		return reject("stale connection generation")
	}
	conn.SetWriteDeadline(time.Now().Add(SendTimeout))
	if _, err := conn.Write([]byte{1}); err != nil {
		return 0, err
	}
	e.bytesSent.Add(1)
	return gen, nil
}

// readLoop demultiplexes frames from one accepted connection.  A non-nil
// return means the loop is done for good (peer dead or endpoint broken);
// nil means the connection dropped and the acceptor should re-accept.
func (e *Endpoint) readLoop(conn net.Conn) error {
	defer conn.Close()
	var hdr [5]byte
	for {
		conn.SetReadDeadline(time.Now().Add(e.opts.PeerTimeout))
		if _, err := io.ReadFull(conn, hdr[:1]); err != nil {
			if e.isBroken() {
				return e.err()
			}
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				cause := fmt.Errorf("rank %d silent for %v", e.prev(), e.opts.PeerTimeout)
				e.abort(e.prev(), cause)
				return cause
			}
			return nil // EOF / reset: transient, re-accept
		}
		e.bytesRecv.Add(1)
		switch hdr[0] {
		case frameHeartbeat:
			// the read deadline refresh above is the whole point
		case frameData:
			if _, err := io.ReadFull(conn, hdr[1:5]); err != nil {
				return e.dropConn(err)
			}
			n := int(binary.LittleEndian.Uint32(hdr[1:5]))
			buf := e.rbuf[e.rbufIdx]
			if cap(buf) < n {
				buf = make([]float64, n)
			}
			buf = buf[:n]
			if err := e.readFloats(conn, buf); err != nil {
				return e.dropConn(err)
			}
			e.rbuf[e.rbufIdx] = buf
			e.rbufIdx = 1 - e.rbufIdx
			e.bytesRecv.Add(4 + int64(n)*8)
			select {
			case e.dataCh <- buf:
			case <-e.brokenCh:
				return e.err()
			}
		case frameBarrier:
			var pb [9]byte
			if _, err := io.ReadFull(conn, pb[:]); err != nil {
				return e.dropConn(err)
			}
			e.bytesRecv.Add(9)
			tok := barToken{phase: pb[0], gen: binary.LittleEndian.Uint64(pb[1:])}
			select {
			case e.barCh <- tok:
			case <-e.brokenCh:
				return e.err()
			}
		default:
			cause := fmt.Errorf("protocol error: frame type %d from rank %d", hdr[0], e.prev())
			e.abort(e.prev(), cause)
			return cause
		}
	}
}

// dropConn classifies a mid-frame read error: timeout means a dead peer, a
// broken endpoint returns its error, anything else re-accepts.
func (e *Endpoint) dropConn(err error) error {
	if e.isBroken() {
		return e.err()
	}
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		cause := fmt.Errorf("rank %d stalled mid-frame: %v", e.prev(), err)
		e.abort(e.prev(), cause)
		return cause
	}
	return nil
}

// readFloats fills dst with little-endian float64 bits from conn.
func (e *Endpoint) readFloats(conn net.Conn, dst []float64) error {
	var scratch [512 * 8]byte
	for off := 0; off < len(dst); {
		chunk := len(dst) - off
		if chunk > 512 {
			chunk = 512
		}
		b := scratch[:chunk*8]
		if _, err := io.ReadFull(conn, b); err != nil {
			return err
		}
		for i := 0; i < chunk; i++ {
			dst[off+i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
		}
		off += chunk
	}
	return nil
}

// recvChunk returns the next data chunk from the predecessor.
func (e *Endpoint) recvChunk() ([]float64, error) {
	select {
	case buf := <-e.dataCh:
		return buf, nil
	case <-e.brokenCh:
		return nil, e.err()
	}
}

// barrier runs the two-phase ring token barrier: a gather token circulates
// from rank 0 proving every rank arrived, then a release token lets
// everyone go.  2n messages, same FIFO streams as the data.
func (e *Endpoint) barrier() error {
	if e.size == 1 {
		return nil
	}
	gen := e.barrierGen
	e.barrierGen++
	if e.rank == 0 {
		if err := e.sendBarrier(barrierGather, gen); err != nil {
			return err
		}
		if err := e.waitBarrier(barrierGather, gen); err != nil {
			return err
		}
		if err := e.sendBarrier(barrierRelease, gen); err != nil {
			return err
		}
		return e.waitBarrier(barrierRelease, gen)
	}
	if err := e.waitBarrier(barrierGather, gen); err != nil {
		return err
	}
	if err := e.sendBarrier(barrierGather, gen); err != nil {
		return err
	}
	if err := e.waitBarrier(barrierRelease, gen); err != nil {
		return err
	}
	return e.sendBarrier(barrierRelease, gen)
}

// waitBarrier expects the (phase, gen) token from the predecessor within
// the peer timeout.
func (e *Endpoint) waitBarrier(phase byte, gen uint64) error {
	timer := time.NewTimer(e.opts.PeerTimeout)
	defer timer.Stop()
	select {
	case tok := <-e.barCh:
		if tok.phase != phase || tok.gen != gen {
			cause := fmt.Errorf("barrier token (phase %d, gen %d) out of order, want (%d, %d)",
				tok.phase, tok.gen, phase, gen)
			e.abort(e.prev(), cause)
			return e.err()
		}
		return nil
	case <-e.brokenCh:
		return e.err()
	case <-timer.C:
		cause := fmt.Errorf("barrier token overdue from rank %d after %v", e.prev(), e.opts.PeerTimeout)
		e.abort(e.prev(), cause)
		return e.err()
	}
}

// ---- in-process group ------------------------------------------------

// Group runs every rank of a TCP ring inside one process over loopback
// sockets — the transport the fleet uses for `-transport tcp`, and the
// harness the bitwise-equivalence tests drive.  It implements
// cluster.Transport by fanning each per-rank call out to that rank's
// Endpoint; a failure detected by any endpoint breaks all of them and is
// reported once per dead rank.
type Group struct {
	eps []*Endpoint

	mu     sync.Mutex
	dead   []int
	closed bool
	opts   Options
	// peerFails counts ranks declared dead directly through the group
	// (e.g. an injected sever); endpoint-detected failures count on the
	// endpoint that noticed them.
	peerFails atomic.Int64
}

// NewLoopbackGroup builds an n-rank TCP ring over 127.0.0.1 listeners.
func NewLoopbackGroup(n int, opts Options) (*Group, error) {
	opts = opts.withDefaults()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		ln, err := Listen("")
		if err != nil {
			for j := 0; j < i; j++ {
				lns[j].Close()
			}
			return nil, fmt.Errorf("tcptransport: rank %d listener: %w", i, err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	g := &Group{opts: opts}
	for i := 0; i < n; i++ {
		ep := NewEndpoint(i, n, lns[i], addrs[(i+1)%n], opts)
		ep.mu.Lock()
		ep.onAbort = g.abort
		ep.mu.Unlock()
		g.eps = append(g.eps, ep)
	}
	return g, nil
}

// abort is the group-wide failure cascade: record the dead rank once, run
// the user callback, break every endpoint.
func (g *Group) abort(rank int, cause error) {
	g.mu.Lock()
	notify := false
	if rank >= 0 {
		seen := false
		for _, d := range g.dead {
			if d == rank {
				seen = true
				break
			}
		}
		if !seen {
			g.dead = append(g.dead, rank)
			notify = true
		}
	}
	g.mu.Unlock()
	for _, ep := range g.eps {
		ep.breakLocal(rank, cause)
	}
	if notify && g.opts.OnPeerDeath != nil {
		g.opts.OnPeerDeath(rank, cause)
	}
}

// Size returns the rank count.
func (g *Group) Size() int { return len(g.eps) }

// Endpoint returns rank's endpoint (fault injection, addresses).
func (g *Group) Endpoint(rank int) *Endpoint { return g.eps[rank] }

// Send implements cluster.Transport.
func (g *Group) Send(rank int, chunk []float64) error { return g.eps[rank].sendChunk(chunk) }

// Recv implements cluster.Transport.
func (g *Group) Recv(rank int) ([]float64, error) { return g.eps[rank].recvChunk() }

// Barrier implements cluster.Transport.
func (g *Group) Barrier(rank int) error { return g.eps[rank].barrier() }

// Abort implements cluster.Transport.
func (g *Group) Abort(rank int, cause error) {
	if rank >= 0 {
		g.peerFails.Add(1)
	}
	g.abort(rank, cause)
}

// CutConn implements cluster.ConnCutter: sever rank's outgoing connection
// so its next send exercises the reconnect path.
func (g *Group) CutConn(rank int) { g.eps[rank].CutConn(rank) }

// Dead returns the ranks declared dead, in detection order.
func (g *Group) Dead() []int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]int(nil), g.dead...)
}

// Stats sums the endpoints' measured wire counters.
func (g *Group) Stats() cluster.TransportStats {
	total := cluster.TransportStats{Kind: "tcp", PeerFailures: g.peerFails.Load()}
	for _, ep := range g.eps {
		total.Add(ep.Stats())
	}
	return total
}

// Close tears every endpoint down.
func (g *Group) Close() error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil
	}
	g.closed = true
	g.mu.Unlock()
	for _, ep := range g.eps {
		ep.Close()
	}
	return nil
}
