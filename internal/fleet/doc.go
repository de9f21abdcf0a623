// Package fleet runs N replicated online FEKF trainers coupled through the
// internal/cluster ring — the paper's §6 endgame of distributed online
// learning.
//
// Topology: an ingest sharder partitions the labelled-frame stream across
// per-replica bounded queues (hash or round-robin, reusing the
// internal/online queue policies); each replica drains its shard through
// its own ALKPU-style uncertainty gate into its own replay buffer.  Every
// training step is a lockstep collective: each live replica samples a
// private minibatch from its replay buffer, the per-replica gradients and
// absolute-error sums are funnel-aggregated over the ring *before* the
// Kalman update (the step schedule optimize.RankStep, with the replica's
// full P or, in pshard mode, its slab share as the covariance), and every
// replica then applies the identical reduced update to its local weights
// and P.  Because the reduced buffers are bit-identical on every rank
// after the allgather, all replicas hold bitwise-identical weights and
// error covariance with zero P communication — the fleet invariant
// WeightDrift == PDrift == 0, asserted after every step.
//
// Serving: a snapshot router load-balances predictions across the
// replicas' copy-on-write model snapshots with health checks.  A killed
// replica is drained from the rotation without failing in-flight
// predictions (snapshots are immutable clones); survivors keep training
// through a re-formed ring, and the dead replica rejoins via a
// checkpoint of the shared state taken from any survivor — after which
// drift is again exactly zero.
package fleet
