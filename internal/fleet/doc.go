// Package fleet runs N replicated online FEKF trainers coupled through the
// internal/cluster ring — the paper's §6 endgame of distributed online
// learning.
//
// Topology: each replica embeds the single trainer's ingest lane
// (online.Lane: bounded queue, ALKPU-style uncertainty gate, replay
// buffer, published snapshot).  An ingest sharder partitions the
// labelled-frame stream across the replicas' queues (hash or round-robin,
// reusing the internal/online queue policies); the conductor drains each
// shard through that replica's lane.  Every training step is a lockstep
// collective: each live replica samples a private minibatch from its
// replay buffer, the per-replica gradients and absolute-error sums are
// funnel-aggregated over the ring *before* the Kalman update (the step
// schedule optimize.RankStep, over the Kalman state the fleet holds for
// each rank: every P block whole when replicated, its row-slab share when
// sharded — see cov.go), and every replica then applies the identical
// reduced update to its local weights and P.  Because the reduced buffers
// are bit-identical on every rank, all replicas hold bitwise-identical
// weights and covariance — the fleet invariant WeightDrift == PDrift == 0,
// asserted after every step.
//
// Serving: a snapshot router load-balances predictions across the
// replicas' copy-on-write model snapshots with health checks.  A killed
// replica is drained from the rotation without failing in-flight
// predictions (snapshots are immutable clones); survivors keep training
// through a re-formed ring, and the dead replica rejoins via a
// checkpoint of the shared state taken from any survivor, with P refit to
// the new live set at once — after which drift is again exactly zero.
//
// Loop: the conductor is an online.Loop — the same loop the single trainer
// runs — over the fleet's Backend hooks: Intake samples queue pressure,
// drains every shard (redistributing dead ones) and runs the autoscaler,
// whose next evaluation is the only deadline of the loop's idle wait;
// ingest wakes it otherwise.  Step is the collective lockstep step;
// Publish, Build and Apply cover every replica.  The loop's post-step tail
// brings the self-healing layer (checkpoint ring, sentinel, rollback); the
// fleet adds only the fleet-wide in-place restore and the step watchdog.
package fleet
