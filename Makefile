# Developer entry points. `make check` is the pre-PR gate: it runs the
# tier-1 build/test pass plus a gofmt gate, vet, the race detector (the
# cluster and storage layers are concurrency-sensitive; -race is what
# catches a bad interleaving before it merges), a short run of each
# fuzz target so a decoder regression cannot merge unfuzzed, and one
# iteration of every benchmark so a broken benchmark cannot either.

GO ?= go
FUZZTIME ?= 10s

.PHONY: all build test bench bench-smoke bench-gates bench-selftest scenarios check fmt vet cross race fuzz chaos chaos-pairs loc

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Root-package benchmarks, then the per-layer erasure codec benchmarks
# (the GF(256) kernels on each path the CPU has: mulAdd over 4 KiB, 256
# KiB and 2 MiB planes, and the fused mulSum over 2 and 4 sources of
# 256 KiB and 2 MiB, which writes 2 MiB from two sources in 0.27–0.29 ms
# by GFNI, 0.41–0.46 ms by PSHUFB and 2.1–3.4 ms by the table; 4 MiB
# object, 2+1: encode, healthy read, degraded read, and the same two
# reads as planes: healthy 0.16–0.17 ms and 208 B, degraded 0.64–0.72
# ms and 2.1 MB, against 0.96–1.30 ms and 1.07–1.11 ms and 4.2 MB
# joined, on a 2-core host), the
# image CRC-64 and the shard CRC-32 (64 B, 1 KiB, 4 KiB, 64 KiB and
# 4 MiB; the CRC-32 beside hash/crc32 as reference), the checkpoint
# benchmarks (4 MiB image: decode, sequential and 2-worker
# encode, CRC-64 combine; capture of a stopped 4 MiB process, whole and
# as a 5% delta, at 1 and 2 workers; 16-delta chain: replay planning,
# plan apply onto materialized pages at 1 and 8 workers, and restore
# into a fresh process at 1 and 2 workers, whose whole pages borrow the
# chain's bytes: 0.28–0.31 ms and 0.23 MB per restore on a 2-core host,
# where copying them into fresh frames took 0.60–0.72 ms and 2.41 MB;
# 16-delta chain fold; the 17-image chain loaded by manifest from a 2+1
# erasure set, healthy and with member 0 down, each image decoded from
# its planes: 2.1 ms and 0.22 MB healthy, 4.8–5.0 ms and 7.3 MB degraded,
# where joining each image first took 7.4 ms and 14.2 MB, and 8.0–8.7 ms
# and 14.2 MB), the storage target
# benchmarks (4 MiB atomic write and 4 MiB batched chain read, local and
# remote; 4 MiB replicated write and read, buddy mirror and 2+1 erasure),
# the simulated job's 4 KiB page fill (one page, and four interleaved
# lanes), and the fleet control plane (one 157-member digest into a
# timeout detector; a 10k-node, 64-shard root supervisor run for 100 ms
# of simulated time: 35–37 ms, 0.35–0.37 ms per tick and 10.3 MB per
# run on a 2-core host, where regrowing the event log and each
# checkpoint burst's batch took 42–52 ms and 16.2 MB), in ns/op, MB/s
# and allocs/op.
bench:
	$(GO) test -bench=. -benchmem
	$(GO) test -run '^$$' -bench . -benchmem ./internal/storage/erasure
	$(GO) test -run '^$$' -bench . -benchmem ./internal/crc
	$(GO) test -run '^$$' -bench . -benchmem ./internal/checkpoint
	$(GO) test -run '^$$' -bench 'Store|Replicated' -benchmem ./internal/storage
	$(GO) test -run '^$$' -bench 'PageBuf' -benchmem ./internal/workload
	$(GO) test -run '^$$' -bench 'DigestIngest' -benchmem ./internal/detector
	$(GO) test -run '^$$' -bench 'ShardTick' -benchmem ./internal/cluster

# Every benchmark in the module, run once (-benchtime 1x), so that a
# benchmark that panics or fails its own check cannot merge unnoticed;
# about 10 s on a 2-core host. The figures it prints are single samples,
# not measurements.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# The gate run at full size: every experiment but E9 (Table 1's
# categorical restart matrix, which has no records) — the paper's own
# claims E1–E13, then incremental shipping, parallel capture, restore
# fast path, replication, fleet scale, lazy restore and policy. Every
# experiment's records (one JSON schema) go to BENCH_gates.json; the
# command exits nonzero if any row of experiments.Gates fails, an
# experiment counted an error, or a sim-clock record differs from the
# committed BENCH_gates.json it overwrites (866 of them; each one that
# moved is named with its old and new value, and the rewritten file is
# the new pin to commit after an intended change).
bench-gates:
	$(GO) run ./cmd/crbench -e 1,2,3,4,5,6,7,8,10,11,12,13,14,15,16,17,18,19,20 -json BENCH_gates.json

# The benchmark's own self-tests, at test-sized inputs: traced and
# untraced runs must simulate identically, and every workload's checks
# (restore-storm's corrupted shard among them) must hold. bench/ is a
# module of its own, so `go test ./...` never reaches it.
bench-selftest:
	$(GO) -C bench test ./...

# The whole scenario catalog (64..10k nodes, faulty digests, whole-shard
# evacuation, lazy restore, the broken-fencing contrast run), each
# scenario recorded and judged against its rows of experiments.Gates;
# about a third of a second. -v prints every scenario's records.
scenarios:
	$(GO) test ./internal/scenario/ -count=1 -v

# The gofmt gate: fails if any Go file in the tree (bench/'s module
# included) is not gofmt-clean; `gofmt -l .` names the offenders.
fmt:
	test -z "$$(gofmt -l .)"

vet:
	$(GO) vet ./...

# Non-test Go lines per package directory, then their total outside
# bench/ (the benchmark's own module): the line count a simplicity
# change reports before and after.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' | xargs wc -l | \
	awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
	END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total outside bench/\n", t }'

# The builds amd64 never compiles: the assembly kernels' table-only
# fallbacks (internal/crc's crc_other.go, the erasure codec's
# gf256_other.go) must vet on arm64 and build on 386. The 386 test run
# then executes those fallbacks, and every golden, with a 32-bit int;
# 386 binaries run natively on an amd64 host.
cross:
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=386 $(GO) build ./...
	GOARCH=386 $(GO) test ./...

race:
	$(GO) test -race -timeout 40m ./...

# Short, budgeted runs of every fuzz target (Go runs one -fuzz target per
# invocation). The nightly CI job runs these longer plus a 10k-seed chaos
# sweep.
fuzz:
	$(GO) test ./internal/checkpoint -run '^$$' -fuzz '^FuzzImageDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/checkpoint -run '^$$' -fuzz '^FuzzImageRoundTrip$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/checkpoint -run '^$$' -fuzz '^FuzzImageDecodePieces$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/storage/erasure -run '^$$' -fuzz '^FuzzErasureRoundTrip$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/storage/erasure -run '^$$' -fuzz '^FuzzMulAdd$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/crc -run '^$$' -fuzz '^FuzzCRC64$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/crc -run '^$$' -fuzz '^FuzzCRC32$$' -fuzztime $(FUZZTIME)

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

check: build fmt vet cross race fuzz scenarios chaos-pairs bench-smoke bench-gates bench-selftest
