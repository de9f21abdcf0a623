# Verification targets for the FEKF reproduction.  `make ci` is the gate
# every change must pass: vet, the full test suite, the concurrency-
# sensitive packages (worker pool, cluster, device accounting) under the
# race detector — including the pipelined Kalman schedule — and a short
# fuzz pass over the determinism-critical kernels.

GO ?= go

.PHONY: ci vet test race race-pipeline race-online race-fleet race-pshard race-transport race-autoscale race-obs race-guard fuzz bench bench-layers bench-fleet bench-pshard bench-transport bench-autoscale bench-obs bench-smoke fmt loc serve-smoke

ci: vet test race race-pipeline race-online race-fleet race-pshard race-transport race-autoscale race-obs race-guard fuzz bench-layers bench-fleet bench-pshard bench-transport bench-autoscale bench-obs bench-smoke serve-smoke

vet:
	$(GO) vet ./...

test:
	$(GO) build ./... && $(GO) test ./...

# The host worker pool, the per-block Kalman parallelism, the ring
# allreduce and the lock-free device counters all run goroutine-concurrent;
# keep them race-clean.
race:
	$(GO) test -race -timeout 45m ./internal/...

# Exercise the force-group pipeline (background covariance drains
# overlapping forward/backward and ring collectives) under the race
# detector; the pipeline is on by default.
race-pipeline:
	$(GO) test -race -timeout 45m -run 'Pipelin|Golden|UpdateSplit' \
		./internal/optimize ./internal/cluster ./internal/train

# The online-learning subsystem is concurrency all the way down: HTTP
# producers against the ingest queue, the trainer loop against snapshot
# readers, concurrent predicts against shutdown.  Soak it under
# the race detector explicitly (the broad `race` target covers it too;
# this runs the streaming packages alone for a fast signal).
race-online:
	$(GO) test -race -timeout 15m -count=1 ./internal/online ./internal/serve

# Soak the replicated fleet under the race detector: N replicas in lockstep
# collective steps while HTTP-style producers shard frames into the queues,
# readers run forwards on routed snapshots, and stats poll — plus the
# kill / rejoin membership paths.
race-fleet:
	$(GO) test -race -timeout 20m -count=1 ./internal/fleet

# Soak the sharded-covariance subsystem under the race detector: the slab
# kernels and exchange collectives of internal/pshard, the fleet and serve
# integration (lockstep bitwise twins, kill/revive slab migration,
# checkpoint resume, the /v1/stats pshard row and per-rank gauges), and
# the pshard subtests of the fleet tests that run both covariance modes.
# go test splits -run on '/' and an empty alternative matches every name,
# so the mode tests are named one by one; TestRacePShardNamesEveryModeTest
# (internal/fleet) fails when a covModes test is missing from the list.
race-pshard:
	$(GO) test -race -timeout 20m -count=1 ./internal/pshard
	$(GO) test -race -timeout 20m -count=1 -run 'PShard' ./internal/fleet ./internal/serve
	$(GO) test -race -timeout 20m -count=1 -run '^(TestReplicaCrashMidStepKeepsConsistency|TestRingFailureOfEveryRankKeepsOneReplica|TestCatchUpFreesReplacedCovariance|TestFleetTCPSeverMapsToReplicaDeath|TestReviveCatchesUpBitwise|TestNewSeedsFromSteppedPrototype|TestReplicaOptimizersHoldNoKalmanState|TestKillReviveRefitAtOnce)$$/^pshard$$' ./internal/fleet

# Soak the queue-pressure autoscaler under the race detector: bursty
# producers against tiny DropNewest queues force full scale-up/scale-down
# cycles while predict and stats traffic runs concurrently, with the
# bitwise zero-drift invariant checked at every sample (plus the
# fake-clock controller unit tests, which share the Autoscale name).
race-autoscale:
	$(GO) test -race -timeout 20m -count=1 -run 'Autoscale' ./internal/fleet

# The metrics registry and step tracer are written to from every hot path
# at once — collective ranks, background drains, HTTP handlers — while
# scrapes walk the families.  Soak concurrent register/update/scrape and
# the instrumented trainer/fleet/serve paths under the race detector.
race-obs:
	$(GO) test -race -timeout 15m -count=1 ./internal/obs
	$(GO) test -race -timeout 15m -count=1 -run 'Observability|Obs|Instrumentation' \
		./internal/online ./internal/fleet ./internal/serve

# Soak the self-healing layer under the race detector: the sentinel/ring/
# frame unit tests, then the guard integration across trainer, fleet and
# serve — divergence auto-rollback to the newest healthy ring generation,
# corrupt-checkpoint quarantine, the conductor step watchdog mapping a hung
# rank onto the replica-death path, and the chaos soak (byte flips + NaN
# poison + hung rank over {replicated,pshard} × {chan,tcp}) with continuous
# predict availability and bitwise drift==0 recovery.  The fleet tests
# inject the poison and the hang through unexported test seams on Fleet;
# the trainer tests through TrainerConfig.Chaos.
race-guard:
	$(GO) test -race -timeout 20m -count=1 ./internal/guard
	$(GO) test -race -timeout 30m -count=1 -run 'Guard|Rollback|Watchdog|Chaos|Corrupt|Quarantine' \
		./internal/online ./internal/fleet ./internal/serve

# The TCP ring transport runs four goroutines per endpoint (accept, read,
# heartbeat, plus the caller) against shared connection state, reconnect
# and abort paths.  Soak the wire protocol, the chan-vs-TCP bitwise
# equivalence sweeps and the two-process TCP ring under the race detector.
race-transport:
	$(GO) test -race -timeout 20m -count=1 ./internal/cluster/tcptransport
	$(GO) test -race -timeout 20m -count=1 -run 'TCP|ChanVsTCP|Transport|Sever|Reconnect' \
		./internal/cluster ./internal/fleet

# End-to-end test of cmd/serve under the race detector: the test binary
# re-runs itself as the command, once per backend (trainer, 3-replica
# fleet, sharded fleet over TCP), boots with the MD client, trains to a
# periodic checkpoint, drains on SIGTERM, resumes through -resume at the
# same step and λ, and resumes again past a corrupted newest checkpoint
# generation, which must be quarantined.
serve-smoke:
	$(GO) test -race -count=1 ./cmd/serve

# Short fuzz pass over the kernels whose parallel==serial bitwise contract
# the pipeline relies on, plus the checkpoint and model loaders that read
# untrusted files, the HTTP API's two JSON request decoders, whose
# accepted inputs must build a neighbour environment in bounded time, and
# the TCP ring's handshake acceptor (go test runs one fuzz target per
# invocation).  The loader, model and frames targets' seeds are whole
# checkpoints or frame batches of several kB: minimizing every new input
# byte by byte would eat the whole budget, so they keep inputs as found;
# so does the handshake target, each of whose runs crosses a net.Pipe
# with two goroutines.
fuzz:
	$(GO) test ./internal/tensor -run '^$$' -fuzz '^FuzzGEMMParallelMatchesSerial$$' -fuzztime 5s
	$(GO) test ./internal/tensor -run '^$$' -fuzz '^FuzzPUpdateFusedParallelMatchesSerial$$' -fuzztime 5s
	$(GO) test ./internal/tensor -run '^$$' -fuzz '^FuzzMatVecParallelMatchesSerial$$' -fuzztime 5s
	$(GO) test ./internal/tensor -run '^$$' -fuzz '^FuzzDenseKernelsMatchReference$$' -fuzztime 5s
	$(GO) test ./internal/fleet -run '^$$' -fuzz '^FuzzShardRouting$$' -fuzztime 5s
	$(GO) test ./internal/pshard -run '^$$' -fuzz '^FuzzBlockPartition$$' -fuzztime 5s
	$(GO) test ./internal/fleet -run '^$$' -fuzz '^FuzzCheckpointLoad$$' -fuzztime 5s -fuzzminimizetime 1x
	$(GO) test ./internal/deepmd -run '^$$' -fuzz '^FuzzDecodeModel$$' -fuzztime 5s -fuzzminimizetime 1x
	$(GO) test ./internal/serve -run '^$$' -fuzz '^FuzzPredictRequest$$' -fuzztime 5s
	$(GO) test ./internal/serve -run '^$$' -fuzz '^FuzzFramesRequest$$' -fuzztime 5s -fuzzminimizetime 1x
	$(GO) test ./internal/cluster/tcptransport -run '^$$' -fuzz '^FuzzAcceptHandshake$$' -fuzztime 5s -fuzzminimizetime 1x

# Host-parallelism speedup curve (Kalman block update, GEMM family, the
# pipelined FEKF iteration).
bench:
	$(GO) test -bench 'Kalman|GEMM|FEKFPipeline' -benchmem .

# Layer benchmarks below the step: the dense tensor kernels at the step's
# shapes (one goroutine), then the environment build and one forward with
# a double-backprop force gradient, at batch 1 and 4 on the tiny Cu frame,
# with allocations reported.  Run once per iteration in ci as a smoke;
# drop -benchtime for real numbers.
bench-layers:
	$(GO) test ./internal/tensor -run '^$$' -bench Kernels -benchtime 1x
	$(GO) test ./internal/deepmd -run '^$$' -bench 'BuildEnv|ForwardForceGrad' -benchtime 1x

# Replica-count sweep of one lockstep fleet step (1/2/4 replicas); run once
# per iteration in ci as a smoke, without -benchtime for real numbers.
bench-fleet:
	$(GO) test ./internal/fleet -run '^$$' -bench FleetScaling -benchtime 1x

# Replicated vs sharded covariance: one lockstep step at 1/2/4 ranks in
# both modes, with the per-rank resident P footprint reported alongside
# the wall time.  Run once per iteration in ci as a smoke.
bench-pshard:
	$(GO) test ./internal/fleet -run '^$$' -bench PShardStep -benchtime 1x

# In-process channel transport vs. TCP loopback on the same 3-rank
# allreduce: the delta is the real socket cost the modeled RoCE numbers
# abstract away.  Run once per iteration in ci as a smoke.
bench-transport:
	$(GO) test ./internal/cluster -run '^$$' -bench AllreduceTransport -benchtime 1x

# Autoscaler cost: one controller evaluation (the per-interval conductor
# overhead) and one full revive+kill scale transition (checkpoint catch-up
# latency a scale event adds between steps).  Run once in ci as a smoke.
bench-autoscale:
	$(GO) test ./internal/fleet -run '^$$' -bench 'AutoscaleDecision|FleetScaleTransition' -benchtime 1x

# Observability overhead: the bare vs instrumented step benchmarks for
# eyeballing, plus the paired budget test that bounds the instrumentation
# cost of one step at < 2% of the measured step time (the A/B wall-clock
# diff alone drowns a sub-0.1% overhead in scheduler noise, so the gate is
# the paired measurement).
bench-obs:
	$(GO) test ./internal/online -run '^$$' -bench TrainStep -benchtime 1x
	$(GO) test ./internal/online -run InstrumentationOverheadBudget -count=1 -v

# The repository benchmark (perfbench/) is its own Go module, so the root
# `go build ./...` never compiles it: build it and run its smoke test
# (every workload at tiny length) so an API change cannot break it
# silently.
bench-smoke:
	cd perfbench && $(GO) test -count=1 ./...

fmt:
	gofmt -l .

# Non-test Go lines per package directory and in total for the root module
# (perfbench/ is its own module and is left out) — the size measure the
# simplicity changes report before and after.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './perfbench/*' ! -path './.*' -print0 | \
		xargs -0 wc -l | awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t }'
