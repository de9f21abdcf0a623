# Verification targets for the FEKF reproduction.  `make ci` is the gate
# every change must pass: vet, the full test suite, the concurrency-
# sensitive packages (worker pool, cluster, device accounting) under the
# race detector — including the pipelined Kalman schedule — and a short
# fuzz pass over the determinism-critical kernels.

GO ?= go

.PHONY: ci vet test race race-pipeline race-online race-fleet race-pshard race-transport race-autoscale race-obs race-guard fuzz bench bench-fleet bench-pshard bench-json bench-transport bench-autoscale bench-obs bench-smoke fmt serve-smoke

ci: vet test race race-pipeline race-online race-fleet race-pshard race-transport race-autoscale race-obs race-guard fuzz bench-fleet bench-pshard bench-transport bench-autoscale bench-obs bench-smoke serve-smoke

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
# detector, with the pipeline forced on regardless of the environment.
race-pipeline:
	FEKF_PIPELINE=1 $(GO) test -race -timeout 45m -run 'Pipelin|Golden|UpdateSplit' \
		./internal/optimize ./internal/cluster ./internal/train

# The online-learning subsystem is concurrency all the way down: HTTP
# producers against the ingest queue, the trainer loop against snapshot
# readers, the prediction micro-batcher against shutdown.  Soak it under
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
# kernels and exchange collectives of internal/pshard, plus the fleet and
# serve integration (lockstep bitwise twins, kill/revive slab migration,
# checkpoint resume, the /v1/stats pshard row and per-rank gauges).
race-pshard:
	$(GO) test -race -timeout 20m -count=1 ./internal/pshard
	$(GO) test -race -timeout 20m -count=1 -run 'PShard' ./internal/fleet ./internal/serve

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
# predict availability and bitwise drift==0 recovery.
race-guard:
	$(GO) test -race -timeout 20m -count=1 ./internal/guard
	$(GO) test -race -timeout 30m -count=1 -run 'Guard|Rollback|Watchdog|Chaos|Corrupt|Quarantine' \
		./internal/online ./internal/fleet ./internal/serve

# The TCP ring transport runs four goroutines per endpoint (accept, read,
# heartbeat, plus the caller) against shared connection state, reconnect
# and abort paths.  Soak the wire protocol and the chan-vs-TCP bitwise
# equivalence sweeps under the race detector.
race-transport:
	$(GO) test -race -timeout 20m -count=1 ./internal/cluster/tcptransport
	$(GO) test -race -timeout 20m -count=1 -run 'TCP|ChanVsTCP|Transport|Sever|Reconnect' \
		./internal/cluster ./internal/fleet

# End-to-end smoke of cmd/serve: boot a trainer+server on a random port,
# stream MD frames at it, require training steps and a checkpoint, shut
# down gracefully and prove the checkpoint resumes λ and P bitwise.  The
# second run repeats the loop on a 3-replica fleet, adding the zero-drift
# invariant, a replica kill (predict availability must survive) and a
# checkpoint-catch-up rejoin.  The -pshard runs repeat the fleet loop with
# the covariance sharded across the ranks (chan and TCP transports),
# checking the ~1/R resident-P split and the exchange trace span.  The
# -chaos runs poison the weights mid-run and require the guard to roll the
# trainer (and the whole fleet) back to the newest checkpoint-ring
# generation automatically, with predictions answering throughout.
serve-smoke:
	$(GO) run ./cmd/serve -smoke
	$(GO) run ./cmd/serve -smoke -chaos
	$(GO) run ./cmd/serve -smoke -replicas 3
	$(GO) run ./cmd/serve -smoke -replicas 3 -chaos
	$(GO) run ./cmd/serve -smoke -replicas 3 -transport tcp
	$(GO) run ./cmd/serve -smoke -replicas 3 -pshard
	$(GO) run ./cmd/serve -smoke -replicas 3 -pshard -transport tcp
	$(GO) run ./cmd/serve -smoke -autoscale
	$(GO) run ./cmd/serve -smoke-transport

# Short fuzz pass over the kernels whose parallel==serial bitwise contract
# the pipeline relies on (go test runs one fuzz target per invocation).
fuzz:
	$(GO) test ./internal/tensor -run '^$$' -fuzz '^FuzzGEMMParallelMatchesSerial$$' -fuzztime 5s
	$(GO) test ./internal/tensor -run '^$$' -fuzz '^FuzzPUpdateFusedParallelMatchesSerial$$' -fuzztime 5s
	$(GO) test ./internal/tensor -run '^$$' -fuzz '^FuzzSymMatVecParallelMatchesSerial$$' -fuzztime 5s
	$(GO) test ./internal/fleet -run '^$$' -fuzz '^FuzzShardRouting$$' -fuzztime 5s
	$(GO) test ./internal/pshard -run '^$$' -fuzz '^FuzzBlockPartition$$' -fuzztime 5s

# Host-parallelism speedup curve (Kalman block update, GEMM family, the
# pipelined FEKF iteration).
bench:
	$(GO) test -bench 'Kalman|GEMM|FEKFPipeline' -benchmem .

# Replica-count sweep of one lockstep fleet step (1/2/4 replicas); run once
# per iteration in ci as a smoke, without -benchtime for real numbers.
bench-fleet:
	$(GO) test ./internal/fleet -run '^$$' -bench FleetScaling -benchtime 1x

# Replicated vs sharded covariance: one lockstep step at 1/2/4 ranks in
# both modes, with the per-rank resident P footprint reported alongside
# the wall time.  Run once per iteration in ci as a smoke.
bench-pshard:
	$(GO) test ./internal/fleet -run '^$$' -bench PShardStep -benchtime 1x

# Dump the replicated-vs-sharded comparison (step wall time, per-rank
# resident P bytes, exchange traffic) as a JSON table for offline
# tracking.  Not part of ci — run it by hand when collecting numbers.
bench-json:
	FEKF_BENCH_JSON=$(CURDIR)/BENCH_pshard.json $(GO) test ./internal/fleet -run PShardBenchJSON -count=1 -v

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
