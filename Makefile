# Developer entry points. `make check` is the pre-PR gate: it runs the
# tier-1 build/test pass plus vet, the race detector (the cluster and
# storage layers are concurrency-sensitive; -race is what catches a bad
# interleaving before a reviewer does), and a short run of each fuzz
# target so a decoder regression cannot merge unfuzzed.

GO ?= go
FUZZTIME ?= 10s

.PHONY: all build test bench bench-ckpt bench-parallel bench-restore bench-replication bench-scale bench-lazy bench-policy scenarios check vet race fuzz chaos chaos-incremental chaos-replication chaos-sharded chaos-lazy chaos-policy

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Root-package benchmarks, then the per-layer erasure codec benchmarks
# (4 MiB object, 2+1: encode, healthy read, degraded read), the
# checkpoint image codec benchmarks (4 MiB image: decode, sequential and
# 2-worker encode, CRC-64 combine) and the storage target benchmarks
# (4 MiB atomic write and 4 MiB batched chain read, local and remote) in
# ns/op, MB/s and allocs/op.
bench:
	$(GO) test -bench=. -benchmem
	$(GO) test -run '^$$' -bench . -benchmem ./internal/storage/erasure
	$(GO) test -run '^$$' -bench . -benchmem ./internal/checkpoint
	$(GO) test -run '^$$' -bench 'Store' -benchmem ./internal/storage

# Incremental-shipping bench: full images vs delta chains across dirty
# rates (experiment E14), emitted machine-readable for trend tracking.
bench-ckpt:
	$(GO) run ./cmd/crbench -benchckpt BENCH_incremental.json

# Parallel-capture / pipelined-shipping bench (experiment E15): capture
# throughput across shard-worker counts, publish latency p50/p99 through
# the pipelined agent path, end-of-run restore latency.
bench-parallel:
	$(GO) run ./cmd/crbench -bench5 BENCH_5.json

# Restore fast-path bench (experiment E16): recovery latency vs chain
# depth and replay width against the single-full-image baseline, the
# same chain after a server-side fold, and failover-measured restore
# p50/p99 from an autonomic run with CompactAfter set.
bench-restore:
	$(GO) run ./cmd/crbench -bench6 BENCH_6.json

# Replication bench (experiment E17): publish overhead of buddy mirrors
# and 2+1 erasure sharding vs the unreplicated server write, restore
# latency from the nearest surviving replica with the owner's disk lost,
# and failover-measured restore p50 per placement mode. Exits nonzero if
# the degraded-restore p50 exceeds 2x the BENCH_6-style baseline.
bench-replication:
	$(GO) run ./cmd/crbench -bench7 BENCH_7.json

# Fleet-scale bench (experiment E18): the fleet-1k and fleet-10k catalog
# scenarios measured back to back — orchestration events/sec, detection
# and failover latency tails, and the armed-timer count at each scale.
# Exits nonzero if either scenario fails its criteria or the 10k-node
# detect p99 exceeds 2x the 1k-node p99.
bench-scale:
	$(GO) run ./cmd/crbench -bench8 BENCH_8.json

# Lazy-restore bench (experiment E19): time-to-first-instruction of the
# restart-before-read failover vs the eager full restore of the same
# 16-delta chain across replay widths, plus lazy-vs-eager cluster
# failover twins on the same fault schedule. Exits nonzero unless TTFI
# stays at or below 0.25x the eager restore with the drained memory
# image byte-identical to the eager one at every width.
bench-lazy:
	$(GO) run ./cmd/crbench -bench9 BENCH_9.json

# Policy bench (experiment E20): the Young/Daly cadence engine vs a
# fixed-interval twin on the same seeded fault schedule (total work lost
# to failures), and the liveness content policy's delta chain vs a plain
# write-protect twin (bytes shipped, restored live state byte-compared).
# Exits nonzero unless youngdaly work-lost stays at or below 0.8x the
# fixed twin and the liveness chain ships at or below 0.9x the baseline
# with the restored live state byte-identical.
bench-policy:
	$(GO) run ./cmd/crbench -bench10 BENCH_10.json

# The declarative scenario-validation suite's CI subset: every fast
# catalog scenario (64..1000 nodes, faulty digests, whole-shard
# evacuation, the broken-fencing contrast run) judged against its own
# ValidationCriteria. The full 10k-node scenario runs in `make test`
# (skipped only under -short) and in bench-scale.
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

check: build vet race fuzz scenarios chaos-replication chaos-sharded chaos-lazy chaos-policy bench-policy
