package tcptransport

import (
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"fekf/internal/cluster"
)

func testOpts(t *testing.T) Options {
	return Options{RingID: t.Name()}
}

func newGroup(t *testing.T, n int, opts Options) *Group {
	t.Helper()
	g, err := NewLoopbackGroup(n, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	return g
}

// exchange runs one send/recv/barrier round on every rank concurrently.
func exchange(t *testing.T, tr cluster.Transport, payload func(rank int) []float64) [][]float64 {
	t.Helper()
	n := tr.Size()
	got := make([][]float64, n)
	errs := make([]error, 2*n)
	var wg sync.WaitGroup
	for rank := 0; rank < n; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			if err := tr.Send(rank, payload(rank)); err != nil {
				errs[2*rank] = err
				return
			}
			buf, err := tr.Recv(rank)
			if err != nil {
				errs[2*rank] = err
				return
			}
			got[rank] = append([]float64(nil), buf...)
			errs[2*rank+1] = tr.Barrier(rank)
		}(rank)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatalf("exchange: %v", err)
		}
	}
	return got
}

func TestGroupDeliversAroundRing(t *testing.T) {
	g := newGroup(t, 3, testOpts(t))
	got := exchange(t, g, func(rank int) []float64 {
		return []float64{float64(rank), float64(rank) * 10}
	})
	for rank := 0; rank < 3; rank++ {
		prev := float64((rank + 2) % 3)
		if got[rank][0] != prev || got[rank][1] != prev*10 {
			t.Fatalf("rank %d received %v, want from predecessor %v", rank, got[rank], prev)
		}
	}
	st := g.Stats()
	if st.Kind != "tcp" || st.BytesSent == 0 || st.Msgs == 0 {
		t.Fatalf("stats not measuring: %+v", st)
	}
}

// CutConn mid-stream: the next send reconnects with a fresh generation and
// the payload still arrives intact.
func TestReconnectAfterCut(t *testing.T) {
	g := newGroup(t, 2, testOpts(t))
	exchange(t, g, func(rank int) []float64 { return []float64{1} })
	g.CutConn(0)
	got := exchange(t, g, func(rank int) []float64 { return []float64{float64(rank) + 7} })
	if got[1][0] != 7 {
		t.Fatalf("post-cut payload corrupted: %v", got[1])
	}
	if st := g.Stats(); st.Reconnects < 1 {
		t.Fatalf("Reconnects = %d, want >= 1", st.Reconnects)
	}
	if dead := g.Dead(); len(dead) != 0 {
		t.Fatalf("a cut is transient, but Dead() = %v", dead)
	}
}

// A silent peer (heartbeats stopped, nothing sent) is declared dead within
// the peer timeout and blocked operations fail with ErrRingBroken.
func TestHeartbeatTimeoutDeclaresPeerDead(t *testing.T) {
	opts := testOpts(t)
	opts.PeerTimeout = 300 * time.Millisecond
	opts.StartupGrace = time.Second
	var deadRank int
	var once sync.Once
	deadCh := make(chan struct{})
	opts.OnPeerDeath = func(rank int, cause error) {
		once.Do(func() {
			deadRank = rank
			close(deadCh)
		})
	}
	g := newGroup(t, 3, opts)
	exchange(t, g, func(rank int) []float64 { return []float64{1} })
	// Simulate rank 1's process dying: kill its endpoint outright.  Its
	// heartbeats stop; rank 2 (its successor) must notice.
	g.Endpoint(1).Close()
	select {
	case <-deadCh:
	case <-time.After(10 * time.Second):
		t.Fatal("silent peer never declared dead")
	}
	if deadRank != 1 {
		t.Fatalf("rank %d declared dead, want 1", deadRank)
	}
	if err := g.Barrier(0); !errors.Is(err, cluster.ErrRingBroken) {
		t.Fatalf("post-death barrier returned %v, want ErrRingBroken", err)
	}
	found := false
	for _, d := range g.Dead() {
		if d == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("Dead() = %v, want rank 1", g.Dead())
	}
}

// Handshake validation: wrong magic, wrong ring id, wrong rank and stale
// generations are all rejected without disturbing the ring.
func TestHandshakeRejectsImpostors(t *testing.T) {
	opts := testOpts(t)
	opts.StartupGrace = 5 * time.Second
	ln, err := Listen("")
	if err != nil {
		t.Fatal(err)
	}
	ep := NewEndpoint(1, 3, ln, "", opts)
	t.Cleanup(func() { ep.Close() })

	dial := func(t *testing.T, hs []byte) byte {
		t.Helper()
		conn, err := net.DialTimeout("tcp", ep.Addr(), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write(hs); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		var verdict [1]byte
		if _, err := io.ReadFull(conn, verdict[:]); err != nil {
			return 0 // closed without a verdict counts as rejection
		}
		return verdict[0]
	}
	if v := dial(t, handshakeBytes(opts.RingID, 99, 1, magic)); v != 0 {
		t.Fatal("handshake from a non-predecessor rank accepted")
	}
	if v := dial(t, handshakeBytes("other-ring", 0, 1, magic)); v != 0 {
		t.Fatal("handshake from a foreign ring accepted")
	}
	if v := dial(t, handshakeBytes(opts.RingID, 0, 1, 0xdeadbeef)); v != 0 {
		t.Fatal("handshake with bad magic accepted")
	}
	// The genuine predecessor (rank 0) with a fresh generation is accepted;
	// replaying the same generation is stale and rejected.
	if v := dial(t, handshakeBytes(opts.RingID, 0, 5, magic)); v != 1 {
		t.Fatal("genuine predecessor rejected")
	}
	if v := dial(t, handshakeBytes(opts.RingID, 0, 5, magic)); v != 0 {
		t.Fatal("stale generation accepted")
	}
}

// Two endpoints wired manually by address — the shape of the cross-process
// smoke — must interoperate as a 2-rank ring.
func TestStandaloneEndpointsInteroperate(t *testing.T) {
	opts := testOpts(t)
	ln0, err := Listen("")
	if err != nil {
		t.Fatal(err)
	}
	ln1, err := Listen("")
	if err != nil {
		t.Fatal(err)
	}
	ep0 := NewEndpoint(0, 2, ln0, ln1.Addr().String(), opts)
	ep1 := NewEndpoint(1, 2, ln1, ln0.Addr().String(), opts)
	t.Cleanup(func() { ep0.Close(); ep1.Close() })

	var wg sync.WaitGroup
	var got0, got1 []float64
	errs := make([]error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		if err := ep0.Send(0, []float64{3.5}); err != nil {
			errs[0] = err
			return
		}
		buf, err := ep0.Recv(0)
		if err != nil {
			errs[0] = err
			return
		}
		got0 = append(got0, buf...)
		errs[0] = ep0.Barrier(0)
	}()
	go func() {
		defer wg.Done()
		if err := ep1.Send(1, []float64{4.5}); err != nil {
			errs[1] = err
			return
		}
		buf, err := ep1.Recv(1)
		if err != nil {
			errs[1] = err
			return
		}
		got1 = append(got1, buf...)
		errs[1] = ep1.Barrier(1)
	}()
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	if got0[0] != 4.5 || got1[0] != 3.5 {
		t.Fatalf("payloads crossed wrong: ep0 got %v, ep1 got %v", got0, got1)
	}
	if err := ep0.Send(1, nil); err == nil {
		t.Fatal("endpoint accepted an operation for a rank it does not own")
	}
}

// Send retries must be bounded: with no listener to reach, the send fails
// after RetryMax attempts and the successor is declared dead.
func TestSendRetriesAreBounded(t *testing.T) {
	opts := testOpts(t)
	opts.RetryMax = 3
	opts.DialTimeout = 100 * time.Millisecond
	opts.BackoffBase = time.Millisecond
	ln, err := Listen("")
	if err != nil {
		t.Fatal(err)
	}
	// Successor address points at a dead port: grab one and close it.
	deadLn, err := Listen("")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := deadLn.Addr().String()
	deadLn.Close()
	ep := NewEndpoint(0, 2, ln, deadAddr, opts)
	t.Cleanup(func() { ep.Close() })

	start := time.Now()
	err = ep.Send(0, []float64{1})
	if !errors.Is(err, cluster.ErrRingBroken) {
		t.Fatalf("send to dead successor returned %v, want ErrRingBroken", err)
	}
	if time.Since(start) > 10*time.Second {
		t.Fatal("bounded retries took unreasonably long")
	}
	if st := ep.Stats(); st.Retries != int64(opts.RetryMax-1) {
		t.Fatalf("Retries = %d, want %d", st.Retries, opts.RetryMax-1)
	}
	found := false
	for _, d := range ep.Dead() {
		if d == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("Dead() = %v, want successor rank 1", ep.Dead())
	}
}
