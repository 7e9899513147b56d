# Developer entry points. `make check` is the pre-PR gate: it runs the
# tier-1 build/test pass plus a gofmt gate, vet, the race detector (the
# cluster and storage layers are concurrency-sensitive; -race is what
# catches a bad interleaving before it merges), and a short run of each
# fuzz target so a decoder regression cannot merge unfuzzed.

GO ?= go
FUZZTIME ?= 10s

.PHONY: all build test bench bench-gates bench-selftest scenarios check fmt vet cross race fuzz chaos chaos-pairs

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Root-package benchmarks, then the per-layer erasure codec benchmarks
# (4 MiB object, 2+1: encode, healthy read, degraded read), the image
# CRC-64 kernel (one 4 KiB page extent, a 4 MiB body), the checkpoint
# benchmarks (4 MiB image: decode, sequential and 2-worker
# encode, CRC-64 combine; 16-delta chain: replay planning, and plan
# apply at 1 and 8 workers; 16-delta chain fold), the storage target
# benchmarks (4 MiB atomic write and 4 MiB batched chain read, local and
# remote; 4 MiB replicated write and read, buddy mirror and 2+1 erasure),
# the simulated job's 4 KiB page fill, and the fleet control plane (one
# 157-member digest into a timeout detector; a 10k-node, 64-shard root
# supervisor run for 100 ms of simulated time), in ns/op, MB/s and
# allocs/op.
bench:
	$(GO) test -bench=. -benchmem
	$(GO) test -run '^$$' -bench . -benchmem ./internal/storage/erasure
	$(GO) test -run '^$$' -bench . -benchmem ./internal/crc
	$(GO) test -run '^$$' -bench . -benchmem ./internal/checkpoint
	$(GO) test -run '^$$' -bench 'Store|Replicated' -benchmem ./internal/storage
	$(GO) test -run '^$$' -bench 'PageBuf' -benchmem ./internal/workload
	$(GO) test -run '^$$' -bench 'DigestIngest' -benchmem ./internal/detector
	$(GO) test -run '^$$' -bench 'ShardTick' -benchmem ./internal/cluster

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

# The gofmt gate: fails if any Go file in the tree (bench/'s module
# included) is not gofmt-clean; `gofmt -l .` names the offenders.
fmt:
	test -z "$$(gofmt -l .)"

vet:
	$(GO) vet ./...

# The builds amd64 never compiles: the CRC-64 kernel's table-only
# fallback (crc_other.go) must vet on arm64 and build on 386.
cross:
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=386 $(GO) build ./...

race:
	$(GO) test -race -timeout 40m ./...

# Short, budgeted runs of every fuzz target (Go runs one -fuzz target per
# invocation). The nightly CI job runs these longer plus a 10k-seed chaos
# sweep.
fuzz:
	$(GO) test ./internal/checkpoint -run '^$$' -fuzz '^FuzzImageDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/checkpoint -run '^$$' -fuzz '^FuzzImageRoundTrip$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/storage/erasure -run '^$$' -fuzz '^FuzzErasureRoundTrip$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/crc -run '^$$' -fuzz '^FuzzCRC64$$' -fuzztime $(FUZZTIME)

# The nightly chaos sweep (10k seeds); failing seeds print shrunken
# chaos.Replay reproducer lines and fail the target.
chaos:
	$(GO) run ./cmd/crsurvey chaos -seeds 10000

# The covering sweep in `make check`: seed s runs row s mod 12 of the
# generator's pairwise covering array over the feature knobs (delta
# chains, compaction, liveness, pipelining, replication, sharded
# detection, lazy restore, youngdaly cadence), so 240 seeds run every
# pair of features 20 times under the full fault palette.
chaos-pairs:
	$(GO) run ./cmd/crsurvey chaos -seeds 240

check: build fmt vet cross race fuzz scenarios chaos-pairs bench-gates bench-selftest
