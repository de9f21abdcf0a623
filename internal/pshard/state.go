package pshard

import (
	"fmt"

	"fekf/internal/cluster"
	"fekf/internal/optimize"
)

// Over binds ks, the state of ring rank rank, to ring as the covariance
// of the step schedule (optimize.RankStep); segs is the assignment's
// exchange table (Assignment.Segments), the same on every rank.  Each
// measurement computes the owned P·g rows, allgathers the rest from the
// other owners — the "exchange" collective absent from the replicated
// step — then finishes the update from the now-identical full P·g, so
// every rank applies the same weight increment.  The exchange carries P·g
// rather than Δw because the gain denominator a = 1/(λ+gᵀPg) needs the
// full per-block P·g before any Δw exists.  A broken exchange leaves the
// measurement unapplied: GainOwned writes only scratch.
func Over(ks *optimize.KalmanState, rank int, segs []cluster.Segment, ring *cluster.Ring) optimize.Covariance {
	return ringShare{ks, rank, segs, ring}
}

// ringShare is one rank's state bound to the ring its exchange runs on.
type ringShare struct {
	ks   *optimize.KalmanState
	rank int
	segs []cluster.Segment
	ring *cluster.Ring
}

// Measure implements optimize.Covariance, timing the owned-rows gain, the
// exchange and the finishing gain as separate phases.
func (c ringShare) Measure(g []float64, abe, scale float64, pt *optimize.PhaseTimer) ([]float64, func(), error) {
	pg := c.ks.GainOwned(g)
	pt.End("gain")
	pt.Start()
	if err := c.ring.AllgatherSegments(c.rank, pg, c.segs); err != nil {
		return nil, nil, fmt.Errorf("exchange: %w", err)
	}
	pt.End("exchange")
	pt.Start()
	delta, drain := c.ks.FinishUpdate(g, abe, scale)
	return delta, drain, nil
}
