package fleet

import (
	"context"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fekf/internal/dataset"
	"fekf/internal/fleet/clocktest"
	"fekf/internal/guard"
	"fekf/internal/online"
	"fekf/internal/optimize"
	"fekf/internal/tensor"
)

// newPShardPair builds a sharded fleet and its replicated twin from the
// same stream, model and configuration, so every conductor decision
// (replay sampling, batch widths, ring size) lines up step for step and
// only the covariance layout differs.
func newPShardPair(t *testing.T, replicas int, cfg Config) (*dataset.Dataset, *Fleet, *Fleet) {
	t.Helper()
	pcfg := cfg
	pcfg.PShard = true
	ds, fp := newTestFleet(t, replicas, pcfg)
	_, fr := newTestFleet(t, replicas, cfg)
	return ds, fp, fr
}

// assemblePShardP reconstructs the full per-block covariance from the
// fleet's live shard states.
func assemblePShardP(t *testing.T, f *Fleet) []*tensor.Dense {
	t.Helper()
	ck, err := f.cov.gather()
	if err != nil {
		t.Fatal(err)
	}
	var ps []*tensor.Dense
	for _, n := range ck.Sizes {
		ps = append(ps, tensor.New(n, n))
	}
	for _, s := range ck.Shards {
		n := ck.Sizes[s.Block]
		copy(ps[s.Block].Data[s.RowLo*n:s.RowHi*n], s.Rows)
	}
	return ps
}

// assertPShardMatchesReplicated is the fleet-level tentpole contract: the
// sharded fleet's weights, λ and reassembled P must equal the replicated
// twin's bitwise after the same step schedule.
func assertPShardMatchesReplicated(t *testing.T, fp, fr *Fleet) {
	t.Helper()
	lp, lr := fp.liveIDs(), fr.liveIDs()
	if len(lp) != len(lr) {
		t.Fatalf("live sets diverged: sharded %v, replicated %v", lp, lr)
	}
	for i := range lp {
		wp := fp.reps[lp[i]].model.Params.FlattenValues()
		wr := fr.reps[lr[i]].model.Params.FlattenValues()
		for j := range wp {
			if math.Float64bits(wp[j]) != math.Float64bits(wr[j]) {
				t.Fatalf("replica %d weight %d: sharded fleet diverges from replicated", lp[i], j)
			}
		}
	}
	refKS := fr.cov.states[lr[0]]
	for _, id := range lp {
		st := fp.cov.states[id]
		if st == nil {
			t.Fatalf("live replica %d holds no shard state", id)
		}
		if math.Float64bits(st.Lambda) != math.Float64bits(refKS.Lambda) {
			t.Fatalf("replica %d sharded λ %v, replicated %v", id, st.Lambda, refKS.Lambda)
		}
	}
	for bi, p := range assemblePShardP(t, fp) {
		for j := range p.Data {
			if math.Float64bits(p.Data[j]) != math.Float64bits(refKS.P[bi].Data[j]) {
				t.Fatalf("block %d element %d: reassembled sharded P diverges from replicated", bi, j)
			}
		}
	}
	if fp.PDrift() != 0 {
		t.Fatalf("sharded P-drift gauge reads %g, want exactly 0", fp.PDrift())
	}
	if fp.WeightDrift() != 0 {
		t.Fatalf("sharded weight-drift gauge reads %g, want exactly 0", fp.WeightDrift())
	}
}

// The tentpole, fleet edition: a sharded fleet must stay bitwise identical
// to the replicated fleet over the same stream — weights, λ and the
// reassembled covariance — while each replica holds only ~1/R of P.
func TestPShardFleetLockstepBitwise(t *testing.T) {
	ds, fp, fr := newPShardPair(t, 3, Config{Seed: 11, Gate: online.GateConfig{Enabled: false}})
	for i := 0; i < 12; i++ {
		if ok, err := fp.Ingest(ds.Snapshots[i]); !ok || err != nil {
			t.Fatalf("sharded ingest %d: %v %v", i, ok, err)
		}
		if ok, err := fr.Ingest(ds.Snapshots[i]); !ok || err != nil {
			t.Fatalf("replicated ingest %d: %v %v", i, ok, err)
		}
	}
	fp.drainAll()
	fr.drainAll()
	for i := 0; i < 4; i++ {
		fp.loop.Step()
		fr.loop.Step()
		assertPShardMatchesReplicated(t, fp, fr)
	}
	if fp.Steps() != 4 {
		t.Fatalf("sharded fleet took %d steps, want 4 (last error %q)", fp.Steps(), fp.Stats().LastError)
	}

	// Memory: every rank holds a strict fraction of the covariance and the
	// fractions tile it exactly.
	ps := fp.FleetStats().PShard
	if ps == nil {
		t.Fatal("sharded fleet stats have no pshard row")
	}
	if ps.Ranks != 3 || len(ps.ResidentBytesPerRank) != 3 {
		t.Fatalf("pshard row %+v, want 3 ranks", ps)
	}
	var sum int64
	for r, b := range ps.ResidentBytesPerRank {
		if b <= 0 || b >= ps.TotalBytes {
			t.Fatalf("rank %d resident %d bytes of total %d: not a strict share", r, b, ps.TotalBytes)
		}
		sum += b
	}
	if sum != ps.TotalBytes {
		t.Fatalf("resident bytes sum %d != total %d", sum, ps.TotalBytes)
	}
	if ps.ExchangeBytesPerStep <= 0 {
		t.Fatal("pshard row models no exchange traffic")
	}
	// The replicated twin reports the full P on every replica; the sharded
	// fleet's summed residency equals one replicated copy.
	if got := fp.Stats().PResidentBytes; got != ps.TotalBytes {
		t.Fatalf("sharded fleet resident P %d, want %d", got, ps.TotalBytes)
	}
	if got, want := fr.Stats().PResidentBytes, 3*ps.TotalBytes; got != want {
		t.Fatalf("replicated fleet resident P %d, want %d (full copy per replica)", got, want)
	}
	byID := map[int]int64{}
	for rank, id := range ps.RankReplicaIDs {
		byID[id] = ps.ResidentBytesPerRank[rank]
	}
	for _, rs := range fp.FleetStats().Replica {
		if rs.Alive && rs.PResidentBytes != byID[rs.ID] {
			t.Fatalf("replica %d stats report %d resident bytes, assignment says %d",
				rs.ID, rs.PResidentBytes, byID[rs.ID])
		}
	}
}

// The exchange collective must be bitwise transport-transparent at the
// fleet level too: a sharded fleet running its ring over TCP loopback
// stays in lockstep with one running over in-process channels.
func TestPShardFleetTCPBitwise(t *testing.T) {
	tcpCfg := Config{Seed: 19, Gate: online.GateConfig{Enabled: false}, Transport: "tcp"}
	chanCfg := Config{Seed: 19, Gate: online.GateConfig{Enabled: false}}
	tcpCfg.PShard, chanCfg.PShard = true, true
	ds, ft := newTestFleet(t, 2, tcpCfg)
	_, fc := newTestFleet(t, 2, chanCfg)
	for i := 0; i < 8; i++ {
		ft.Ingest(ds.Snapshots[i])
		fc.Ingest(ds.Snapshots[i])
	}
	ft.drainAll()
	fc.drainAll()
	for i := 0; i < 2; i++ {
		ft.loop.Step()
		fc.loop.Step()
	}
	if ft.Steps() != 2 || fc.Steps() != 2 {
		t.Fatalf("steps %d/%d, want 2/2 (errors %q / %q)",
			ft.Steps(), fc.Steps(), ft.Stats().LastError, fc.Stats().LastError)
	}
	for i := range ft.reps {
		wt := ft.reps[i].model.Params.FlattenValues()
		wc := fc.reps[i].model.Params.FlattenValues()
		for j := range wt {
			if math.Float64bits(wt[j]) != math.Float64bits(wc[j]) {
				t.Fatalf("replica %d weight %d: TCP ring diverges from chan ring", i, j)
			}
		}
	}
	pt, pc := assemblePShardP(t, ft), assemblePShardP(t, fc)
	for bi := range pt {
		for j := range pt[bi].Data {
			if math.Float64bits(pt[bi].Data[j]) != math.Float64bits(pc[bi].Data[j]) {
				t.Fatalf("block %d element %d: sharded P differs across transports", bi, j)
			}
		}
	}
}

// Kill and revive under sharding: the victim's slabs migrate to the
// survivors through the in-memory sharded checkpoint and back again at
// revive — every P row bitwise preserved, proven by lockstep equality with
// a replicated twin driven through the identical membership schedule.
func TestPShardKillReviveBitwise(t *testing.T) {
	ds, fp, fr := newPShardPair(t, 3, Config{Seed: 13, Gate: online.GateConfig{Enabled: false}})
	ctx := context.Background()
	for i := 0; i < 12; i++ {
		fp.Ingest(ds.Snapshots[i])
		fr.Ingest(ds.Snapshots[i])
	}
	fp.drainAll()
	fr.drainAll()
	fp.loop.Step()
	fr.loop.Step()
	assertPShardMatchesReplicated(t, fp, fr)

	if err := fp.Kill(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if err := fr.Kill(ctx, 1); err != nil {
		t.Fatal(err)
	}
	fp.loop.Step() // P was repartitioned 3 → 2 at the kill
	fr.loop.Step()
	assertPShardMatchesReplicated(t, fp, fr)
	if ps := fp.FleetStats().PShard; ps.Ranks != 2 {
		t.Fatalf("after kill the pshard row reports %d ranks, want 2", ps.Ranks)
	}
	if got := fp.reps[1].pBytes.Load(); got != 0 {
		t.Fatalf("dead replica still reports %d resident P bytes", got)
	}

	if err := fp.Revive(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if err := fr.Revive(ctx, 1); err != nil {
		t.Fatal(err)
	}
	fp.loop.Step() // and 2 → 3 at the revive
	fr.loop.Step()
	assertPShardMatchesReplicated(t, fp, fr)
	if ps := fp.FleetStats().PShard; ps.Ranks != 3 {
		t.Fatalf("after revive the pshard row reports %d ranks, want 3", ps.Ranks)
	}
}

// Checkpoint → Resume for a sharded fleet: the covariance is stored once
// (each slab by its owner, never per replica), the replicas carry no full
// Kalman state, and the resumed fleet's next step stays bitwise equal to
// the uninterrupted one.
func TestPShardCheckpointResumeBitwise(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pshard-fleet.ckpt")
	cfg := Config{PShard: true, BatchSize: 2, Seed: 9,
		CheckpointPath: path, Gate: online.GateConfig{Enabled: false}}
	ds, f := newTestFleet(t, 3, cfg)
	for i := 0; i < 12; i++ {
		if ok, err := f.Ingest(ds.Snapshots[i]); !ok || err != nil {
			t.Fatalf("ingest %d: %v %v", i, ok, err)
		}
	}
	f.drainAll()
	for i := 0; i < 3; i++ {
		f.loop.Step()
	}
	if err := f.WriteCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	ck, err := guard.Load[Checkpoint](path)
	if err != nil {
		t.Fatal(err)
	}
	if !ck.PShard || ck.PCk == nil {
		t.Fatal("checkpoint did not record the sharded covariance")
	}
	if ck.Opt.Kalman != nil {
		t.Fatal("sharded checkpoint also stored a full Kalman state")
	}
	f2, err := Resume(ck, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if f2.Steps() != 3 || !f2.cfg.PShard {
		t.Fatalf("resumed at step %d (pshard=%v)", f2.Steps(), f2.cfg.PShard)
	}
	p1, p2 := assemblePShardP(t, f), assemblePShardP(t, f2)
	for bi := range p1 {
		for j := range p1[bi].Data {
			if math.Float64bits(p1[bi].Data[j]) != math.Float64bits(p2[bi].Data[j]) {
				t.Fatalf("block %d element %d: resumed P differs", bi, j)
			}
		}
	}
	f.loop.Step()
	f2.loop.Step()
	for i := range f.reps {
		w1 := f.reps[i].model.Params.FlattenValues()
		w2 := f2.reps[i].model.Params.FlattenValues()
		for j := range w1 {
			if w1[j] != w2[j] {
				t.Fatalf("replica %d weight %d diverged on the first post-resume step", i, j)
			}
		}
	}
	if f.cov.states[0].Lambda != f2.cov.states[0].Lambda {
		t.Fatal("λ diverged on the first post-resume step")
	}
}

// Hard-failure recovery: a dead rank's slabs are lost and a survivor with
// diverged scalar state is untrustworthy — recover must keep the
// reference survivor's rows bitwise on the surviving columns, reset every
// unrecoverable row and column to the identity prior, and leave the fleet
// stepping with consistent shards.
func TestPShardRecoverShards(t *testing.T) {
	cfg := Config{PShard: true, Seed: 17, Gate: online.GateConfig{Enabled: false}}
	ds, f := newTestFleet(t, 3, cfg)
	for i := 0; i < 12; i++ {
		f.Ingest(ds.Snapshots[i])
	}
	f.drainAll()
	f.loop.Step()
	f.loop.Step()

	// Snapshot rank 0's slabs before the failure.
	ck0, err := optimize.GatherSlabs([]*optimize.KalmanState{f.cov.states[0]})
	if err != nil {
		t.Fatal(err)
	}
	before := f.cov.states[0]

	// Replica 2 dies hard; replica 1's scalar state diverges (it applied a
	// measurement the others aborted).
	f.reps[2].alive.Store(false)
	f.cov.states[1].Lambda = math.Nextafter(f.cov.states[1].Lambda, 1)
	f.cov.recover(f.liveIDs())

	if ps := f.cov.row(); ps.Ranks != 2 {
		t.Fatalf("recovered assignment has %d ranks, want 2", ps.Ranks)
	}
	rows := assemblePShardP(t, f)
	owned := make(map[[2]int]bool)
	for _, s := range ck0.Shards {
		for r := s.RowLo; r < s.RowHi; r++ {
			owned[[2]int{s.Block, r}] = true
		}
	}
	// Rows rank 0 owned before the failure must survive bitwise on the
	// columns it owned too; their correlations with the lost rows are
	// dropped (0), so P stays symmetric.  Every other row restarts at the
	// identity prior.
	for _, s := range ck0.Shards {
		n := len(s.Rows) / s.RowCount()
		for r := 0; r < s.RowCount(); r++ {
			for j := 0; j < n; j++ {
				want := s.Rows[r*n+j]
				if !owned[[2]int{s.Block, j}] {
					want = 0
				}
				got := rows[s.Block].At(s.RowLo+r, j)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("block %d row %d col %d not preserved through recovery", s.Block, s.RowLo+r, j)
				}
			}
		}
	}
	for bi, p := range rows {
		if !tensor.CholeskyPD(p) {
			t.Fatalf("recovered P block %d is not symmetric positive-definite", bi)
		}
	}
	for bi, p := range rows {
		n := p.Rows
		for r := 0; r < n; r++ {
			if owned[[2]int{bi, r}] {
				continue
			}
			for j := 0; j < n; j++ {
				want := 0.0
				if j == r {
					want = 1
				}
				if p.At(r, j) != want {
					t.Fatalf("lost block %d row %d did not reset to the identity prior", bi, r)
				}
			}
		}
	}
	// The λ epoch follows the reference survivor, not the diverged rank.
	if f.cov.states[0].Lambda != before.Lambda {
		t.Fatal("recovery moved the reference scalar state")
	}
	// And the fleet keeps stepping with zero drift.
	f.loop.Step()
	if d := f.cov.drift(f.liveIDs()); d != 0 {
		t.Fatalf("post-recovery shard drift %g, want 0", d)
	}
}

// The autoscaler must charge a transition's shard-migration cost against
// its cooldown: an expensive repartition defers the scale event until the
// modeled transfer time has also elapsed.
func TestAutoscaleReassignCostExtendsCooldown(t *testing.T) {
	clk := clocktest.New(time.Unix(0, 0))
	a := NewAutoscaler(AutoscaleConfig{Enabled: true, Min: 1, Max: 4}, 2, clk)
	const transfer = 3 * time.Second
	hot := Sample{Live: 2, QueueOccupancy: 0.9, GateAcceptRate: 1,
		ReassignBytesUp: int64(transfer.Seconds() * ReassignBytesPerSec)}
	if v := a.Evaluate(hot); v.Decision != ScaleUp {
		t.Fatalf("first verdict %+v, want immediate up", v)
	} else if !strings.Contains(v.Reason, "shard bytes") {
		t.Fatalf("reason %q does not mention the repartition cost", v.Reason)
	}
	// Past the base cooldown but inside cooldown+transfer: still held.
	clk.Advance(UpCooldown + transfer/2)
	if v := a.Evaluate(hot); v.Decision != Hold || !strings.Contains(v.Reason, "cooldown") {
		t.Fatalf("verdict %+v, want hold on extended cooldown", v)
	}
	// A cheap transition with the same pressure is already allowed.
	cheap := hot
	cheap.ReassignBytesUp = 0
	if v := a.Evaluate(cheap); v.Decision != ScaleUp {
		t.Fatalf("verdict %+v, want up for the zero-cost transition", v)
	}
	// And past cooldown+transfer the expensive one commits too.
	clk.Advance(UpCooldown + transfer)
	if v := a.Evaluate(hot); v.Decision != ScaleUp {
		t.Fatalf("verdict %+v, want up after the transfer window", v)
	}
}
