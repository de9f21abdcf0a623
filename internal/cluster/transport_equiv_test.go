// Cross-transport equivalence: the ring schedule must reduce to exactly
// the same bits whether the chunks move over in-process channels or real
// TCP loopback sockets.  External test package so it can import
// tcptransport without a cycle.
package cluster_test

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"
	"time"

	"fekf/internal/cluster"
	"fekf/internal/cluster/tcptransport"
	"fekf/internal/dataset"
	"fekf/internal/deepmd"
	"fekf/internal/device"
)

func loopbackRing(t testing.TB, size int) *cluster.Ring {
	t.Helper()
	g, err := tcptransport.NewLoopbackGroup(size, tcptransport.Options{RingID: t.Name()})
	if err != nil {
		t.Fatal(err)
	}
	ring := cluster.NewRingOver(g, cluster.RoCE25())
	t.Cleanup(func() { ring.Close() })
	return ring
}

func ranksInput(seed int64, size, n int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	data := make([][]float64, size)
	for w := range data {
		data[w] = make([]float64, n)
		for i := range data[w] {
			data[w][i] = rng.NormFloat64()
		}
	}
	return data
}

func drive(t *testing.T, ring *cluster.Ring, data [][]float64) {
	t.Helper()
	errs := make([]error, len(data))
	var wg sync.WaitGroup
	for rank := range data {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs[rank] = ring.Allreduce(rank, data[rank])
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
}

// Bitwise sweep: chan vs TCP-loopback across ring sizes and shapes.
func TestAllreduceBitwiseChanVsTCP(t *testing.T) {
	for _, size := range []int{2, 3, 4} {
		tcpRing := loopbackRing(t, size)
		for _, n := range []int{1, 3, 16, 100} {
			seed := int64(size*1000 + n)
			chanData := ranksInput(seed, size, n)
			tcpData := ranksInput(seed, size, n)
			drive(t, cluster.NewRing(size, cluster.RoCE25()), chanData)
			drive(t, tcpRing, tcpData)
			for w := 0; w < size; w++ {
				for i := 0; i < n; i++ {
					if chanData[w][i] != tcpData[w][i] {
						t.Fatalf("size %d n %d rank %d elem %d: chan %x != tcp %x",
							size, n, w, i, chanData[w][i], tcpData[w][i])
					}
				}
			}
		}
		if st := tcpRing.TransportStats(); st.BytesSent == 0 || st.Kind != "tcp" {
			t.Fatalf("tcp ring reported no measured traffic: %+v", st)
		}
	}
}

func equivSetup(t *testing.T) (*dataset.Dataset, *deepmd.Model) {
	t.Helper()
	ds, err := dataset.Generate("Cu", dataset.GenOptions{
		Snapshots: 8, SampleEvery: 4, EquilSteps: 20, Tiny: true, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys := deepmd.SnapshotSystem(ds, &ds.Snapshots[0])
	m, err := deepmd.NewModel(deepmd.TinyConfig(sys))
	if err != nil {
		t.Fatal(err)
	}
	m.Level = deepmd.OptFused
	m.Dev = device.New("base", device.A100())
	if err := m.InitFromDataset(ds); err != nil {
		t.Fatal(err)
	}
	return ds, m
}

// Full training steps must be bitwise identical across transports —
// weights after healthy steps AND after a cooperative rank failure (the
// empty-shard path still runs every collective).
func TestRankStepBitwiseChanVsTCP(t *testing.T) {
	ds, m := equivSetup(t)
	const workers = 3
	idx := []int{0, 1, 2, 3, 4, 5}

	run := func(ring *cluster.Ring) []float64 {
		dp := cluster.NewDataParallelFEKFOver(ring, m)
		if _, err := dp.Step(ds, idx); err != nil {
			t.Fatal(err)
		}
		// Cooperative mid-run rank failure: rank 1 contributes zero
		// partials but the collectives all run.
		dp.SetEnvFail(func(rank int) error {
			if rank == 1 {
				return errors.New("injected failure")
			}
			return nil
		})
		if _, err := dp.Step(ds, idx); err == nil {
			t.Fatal("injected failure must surface")
		}
		dp.SetEnvFail(nil)
		if _, err := dp.Step(ds, idx); err != nil {
			t.Fatal(err)
		}
		if drift := dp.ReplicaDrift(); drift != 0 {
			t.Fatalf("replicas drifted by %v", drift)
		}
		return dp.Model().Params.FlattenValues()
	}

	chanW := run(cluster.NewRing(workers, cluster.RoCE25()))
	tcpW := run(loopbackRing(t, workers))
	for i := range chanW {
		if chanW[i] != tcpW[i] {
			t.Fatalf("weight %d: chan %x != tcp %x — transports not bitwise equivalent",
				i, chanW[i], tcpW[i])
		}
	}
}

// ringPeerEnv carries rank 0's listen address to the rank-1 process of
// TestAllreduceBitwiseAcrossProcessesTCP.
const ringPeerEnv = "CLUSTER_TEST_RING_PEER"

// processRing runs one rank's share of six seeded 512-element allreduces
// over a 2-rank TCP ring, cutting its outgoing connection before round
// cutAt (< 0: never), and returns a checksum of the reduced vectors.
func processRing(t *testing.T, ep *tcptransport.Endpoint, rank, cutAt int) uint64 {
	ring := cluster.NewRingOver(ep, cluster.RoCE25())
	defer ring.Close()
	data := make([]float64, 512)
	var sum uint64
	for round := 0; round < 6; round++ {
		rng := rand.New(rand.NewSource(int64(rank + 977*round)))
		for i := range data {
			data[i] = rng.NormFloat64()
		}
		if round == cutAt {
			ep.CutConn(rank)
		}
		if err := ring.Allreduce(rank, data); err != nil {
			t.Fatalf("rank %d round %d: %v", rank, round, err)
		}
		for _, v := range data {
			sum = sum*1099511628211 + math.Float64bits(v)
		}
	}
	return sum
}

// The wire is bitwise transparent between OS processes: this test binary
// re-runs itself as rank 1, and both ranks must fold the same reduced
// vectors to the same checksum, across a mid-run connection cut on rank 0.
func TestAllreduceBitwiseAcrossProcessesTCP(t *testing.T) {
	if peer := os.Getenv(ringPeerEnv); peer != "" {
		ln, err := tcptransport.Listen("")
		if err != nil {
			t.Fatal(err)
		}
		fmt.Printf("RING_ADDR %s\n", ln.Addr())
		ep := tcptransport.NewEndpoint(1, 2, ln, peer, tcptransport.Options{RingID: t.Name()})
		fmt.Printf("RING_SUM %016x\n", processRing(t, ep, 1, -1))
		return
	}
	ln, err := tcptransport.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^"+t.Name()+"$")
	cmd.Env = append(os.Environ(), ringPeerEnv+"="+ln.Addr().String())
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	sc := bufio.NewScanner(out)
	next := func(prefix string) string {
		for sc.Scan() {
			if v, ok := strings.CutPrefix(sc.Text(), prefix); ok {
				return v
			}
		}
		t.Fatalf("rank 1 never printed %q: %v", prefix, sc.Err())
		return ""
	}
	ep := tcptransport.NewEndpoint(0, 2, ln, next("RING_ADDR "), tcptransport.Options{RingID: t.Name()})
	sum0 := fmt.Sprintf("%016x", processRing(t, ep, 0, 3))
	sum1 := next("RING_SUM ")
	for sc.Scan() {
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("rank 1 process: %v", err)
	}
	if sum0 != sum1 {
		t.Fatalf("checksums differ across processes: %s vs %s", sum0, sum1)
	}
	if st := ep.Stats(); st.BytesSent == 0 || st.Reconnects < 1 {
		t.Fatalf("want measured bytes and a reconnect after the cut: %+v", st)
	}
}

// A FaultCut mid-collective must be survived by the TCP reconnect path
// with a bitwise-identical result and nonzero reconnect counters.
func TestTCPReconnectKeepsCollectiveBitwise(t *testing.T) {
	const size, n = 3, 64
	clean := ranksInput(42, size, n)
	drive(t, cluster.NewRing(size, cluster.RoCE25()), clean)

	g, err := tcptransport.NewLoopbackGroup(size, tcptransport.Options{RingID: t.Name()})
	if err != nil {
		t.Fatal(err)
	}
	ft := cluster.NewFaultyTransport(g,
		cluster.FaultRule{Rank: 1, Msg: 1, Kind: cluster.FaultCut},
		cluster.FaultRule{Rank: 2, Msg: 2, Kind: cluster.FaultCut})
	ring := cluster.NewRingOver(ft, cluster.RoCE25())
	defer ring.Close()

	cut := ranksInput(42, size, n)
	drive(t, ring, cut)
	for w := 0; w < size; w++ {
		for i := 0; i < n; i++ {
			if cut[w][i] != clean[w][i] {
				t.Fatalf("rank %d elem %d: %x != %x after reconnect", w, i, cut[w][i], clean[w][i])
			}
		}
	}
	if ft.Fired() != 2 {
		t.Fatalf("%d cut rules fired, want 2", ft.Fired())
	}
	if st := ring.TransportStats(); st.Reconnects < 2 {
		t.Fatalf("Reconnects = %d, want >= 2 (stats %+v)", st.Reconnects, st)
	}
}

// A severed TCP rank must break the collective for the survivors (no
// hang) and report the dead rank.
func TestTCPSeverBreaksRingWithoutHanging(t *testing.T) {
	const size, n = 3, 32
	g, err := tcptransport.NewLoopbackGroup(size, tcptransport.Options{
		RingID:      t.Name(),
		PeerTimeout: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ft := cluster.NewFaultyTransport(g, cluster.FaultRule{Rank: 1, Msg: 2, Kind: cluster.FaultSever})
	ring := cluster.NewRingOver(ft, cluster.RoCE25())
	defer ring.Close()

	data := ranksInput(5, size, n)
	errs := make([]error, size)
	done := make(chan struct{})
	go func() {
		var wg sync.WaitGroup
		for rank := 0; rank < size; rank++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				errs[rank] = ring.Allreduce(rank, data[rank])
			}(rank)
		}
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("severed TCP rank hung the collective")
	}
	broken := 0
	for _, err := range errs {
		if errors.Is(err, cluster.ErrRingBroken) {
			broken++
		}
	}
	if broken == 0 {
		t.Fatalf("no rank saw ErrRingBroken: %v", errs)
	}
	foundDead := false
	for _, d := range ft.Dead() {
		if d == 1 {
			foundDead = true
		}
	}
	if !foundDead {
		t.Fatalf("Dead() = %v, want rank 1", ft.Dead())
	}
}

// BenchmarkAllreduceTransport compares the in-process channel transport
// against TCP loopback for the gradient-sized collective.
func BenchmarkAllreduceTransport(b *testing.B) {
	const size, n = 3, 4096
	bench := func(b *testing.B, ring *cluster.Ring) {
		data := ranksInput(1, size, n)
		var wg sync.WaitGroup
		start := make([]chan struct{}, size)
		for rank := 0; rank < size; rank++ {
			start[rank] = make(chan struct{})
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				for range start[rank] {
					ring.Allreduce(rank, data[rank])
				}
			}(rank)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for rank := 0; rank < size; rank++ {
				start[rank] <- struct{}{}
			}
		}
		b.StopTimer()
		for rank := range start {
			close(start[rank])
		}
		wg.Wait()
		b.SetBytes(int64(n) * 8)
	}
	b.Run("chan", func(b *testing.B) {
		bench(b, cluster.NewRing(size, cluster.RoCE25()))
	})
	b.Run("tcp-loopback", func(b *testing.B) {
		bench(b, loopbackRing(b, size))
	})
}
