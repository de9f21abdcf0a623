// Package online is the streaming-training subsystem the paper's title
// points at: a long-running trainer that ingests labelled frames while an
// MD simulation (or any producer) generates them, trains the DeePMD model
// continuously with the FEKF optimizer, and publishes copy-on-write model
// snapshots that concurrent prediction readers consume without ever
// blocking — or being blocked by — training.
//
// The dataflow is one loop, online.Loop, shared with the fleet:
//
//	producer ──► Lane.Queue (bounded, backpressure/drop policies)
//	                │ Ingest wakes the idle loop (Loop.Wake)
//	                ▼
//	            Backend.Intake: Lane.Admit
//	            Gate (ALKPU-style uncertainty score against diag(P))
//	                │ accepted frames
//	                ▼
//	            ReplayBuffer (FIFO window + reservoir over the stream)
//	                │ once Backend.Ready: minibatches
//	                ▼
//	            Backend.Step: FEKF via the shared train.Stepper
//	                │ post-step tail, in the loop: sentinel → rollback
//	                │ → OnStep → Publish every SnapshotEvery
//	                │ → counted checkpoint every CheckpointEvery
//	                ▼
//	            atomic snapshot pointer ──► readers (internal/serve)
//
// The queue, gate, replay buffer, snapshot pointer and stats mirrors form
// one Lane — the same type every internal/fleet replica embeds.  The loop
// owns the lifecycle, the wake-on-ingest idle wait, the stop-time drain,
// the post-step tail and its guard.Keeper (checkpoint ring, health
// sentinel, rollback); a Trainer supplies only the Backend hooks.
//
// All mutable training state — the model weights, the Kalman P, the gate
// EMA and the replay buffer — is owned by the single trainer goroutine;
// everything crossing the boundary is either a channel hand-off (frames),
// an immutable published clone (snapshots) or an atomic counter (stats).
// Periodic checkpoints capture the model, the full Kalman state and the
// replay/gate state so a restarted trainer resumes the λ schedule and P
// bitwise.
package online
