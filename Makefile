# Developer entry points. `make check` is the pre-PR gate: it runs the
# tier-1 build/test pass plus vet, the race detector (the cluster and
# storage layers are concurrency-sensitive; -race is what catches a bad
# interleaving before a reviewer does), and a short run of each fuzz
# target so a decoder regression cannot merge unfuzzed.

GO ?= go
FUZZTIME ?= 10s

.PHONY: all build test bench bench-gates bench-selftest scenarios check vet race fuzz chaos chaos-incremental chaos-replication chaos-sharded chaos-lazy chaos-policy

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Root-package benchmarks, then the per-layer erasure codec benchmarks
# (4 MiB object, 2+1: encode, healthy read, degraded read), the
# checkpoint benchmarks (4 MiB image: decode, sequential and 2-worker
# encode, CRC-64 combine; 16-delta chain: replay planning, and plan
# apply at 1 and 8 workers; 16-delta chain fold), the storage target
# benchmarks (4 MiB atomic write and 4 MiB batched chain read, local and
# remote; 4 MiB replicated write and read, buddy mirror and 2+1 erasure)
# and the simulated job's 4 KiB page fill, in ns/op, MB/s and allocs/op.
bench:
	$(GO) test -bench=. -benchmem
	$(GO) test -run '^$$' -bench . -benchmem ./internal/storage/erasure
	$(GO) test -run '^$$' -bench . -benchmem ./internal/checkpoint
	$(GO) test -run '^$$' -bench 'Store|Replicated' -benchmem ./internal/storage
	$(GO) test -run '^$$' -bench 'PageBuf' -benchmem ./internal/workload

# The E14–E20 gate run at full size: incremental shipping, parallel
# capture, restore fast path, replication, fleet scale, lazy restore and
# policy. Every experiment's records (one JSON schema) go to
# BENCH_gates.json; the command exits nonzero if any row of
# experiments.Gates fails or an experiment counted an error.
bench-gates:
	$(GO) run ./cmd/crbench -e 14,15,16,17,18,19,20 -json BENCH_gates.json

# The benchmark's own self-tests, at test-sized inputs: traced and
# untraced runs must simulate identically, and every workload's checks
# (restore-storm's corrupted shard among them) must hold. bench/ is a
# module of its own, so `go test ./...` never reaches it.
bench-selftest:
	$(GO) -C bench test ./...

# The declarative scenario-validation suite's CI subset: every fast
# catalog scenario (64..1000 nodes, faulty digests, whole-shard
# evacuation, the broken-fencing contrast run) judged against its own
# ValidationCriteria. The full 10k-node scenario runs in `make test`
# (skipped only under -short) and in bench-gates.
scenarios:
	$(GO) test ./internal/scenario/ -run 'TestFastScenariosPass|TestBrokenFencingScenarioCatchesDoubleCommit' -count=1 -v

vet:
	$(GO) vet ./...

race:
	$(GO) test -race -timeout 40m ./...

# Short, budgeted runs of every fuzz target (Go runs one -fuzz target per
# invocation). The nightly CI job runs these longer plus a 10k-seed chaos
# sweep.
fuzz:
	$(GO) test ./internal/checkpoint -run '^$$' -fuzz '^FuzzImageDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/checkpoint -run '^$$' -fuzz '^FuzzImageRoundTrip$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/storage/erasure -run '^$$' -fuzz '^FuzzErasureRoundTrip$$' -fuzztime $(FUZZTIME)

# The nightly chaos sweep (10k seeds); failing seeds print shrunken
# chaos.Replay reproducer lines and fail the target.
chaos:
	$(GO) run ./cmd/crsurvey chaos -seeds 10000

# Same sweep with delta-chain shipping forced on every seed, so the
# chain invariants (ancestry-before-durability, GC never breaks a live
# chain, fenced heads) see full coverage nightly rather than only the
# generator's incremental fraction.
chaos-incremental:
	$(GO) run ./cmd/crsurvey chaos -seeds 2000 -incremental

# Replicated-placement sweep: buddy mirrors forced on every seed, 2+1
# erasure on the wide-enough ones, including the node+replica
# double-failure schedules the generator draws. The repl-durability
# checker masks one more holder than the run actually lost, and
# repl-converged demands re-replication finished by the cut. Part of
# `make check` (80 seeds here; the nightly run goes wider).
chaos-replication:
	$(GO) run ./cmd/crsurvey chaos -seeds 80 -replication

# Sharded-detection sweep: digest-path detection forced on every seed
# wide enough for two shards, so aggregator failover, observer probing,
# and digest loss run under the full chaos fault palette (80 seeds here;
# the nightly run goes wider).
chaos-sharded:
	$(GO) run ./cmd/crsurvey chaos -seeds 80 -sharded

# Lazy-restore sweep: restart-before-read failover forced on every seed,
# so demand faults, background prefetch, settle-before-capture, and the
# lazy self-fencing path run under the full chaos fault palette. The
# digest checker makes every seed a lazy-vs-eager equivalence proof: a
# completed run's memory fingerprint must match the eager replay's (80
# seeds here; the nightly run goes wider).
chaos-lazy:
	$(GO) run ./cmd/crsurvey chaos -seeds 80 -lazy

# Policy sweep: the Young/Daly cadence (plus liveness content on
# incremental seeds) forced on every seed, with the work-lost economics
# checker comparing each run against a fixed-cadence twin of the same
# spec — adapting the interval must never lose more than 2x the work of
# not adapting (80 seeds here; the nightly run goes wider).
chaos-policy:
	$(GO) run ./cmd/crsurvey chaos -seeds 80 -policy

check: build vet race fuzz scenarios chaos-replication chaos-sharded chaos-lazy chaos-policy bench-gates bench-selftest
