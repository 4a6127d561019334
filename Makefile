GO ?= go

.PHONY: build test race vet bench bench-json trace fuzz check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The parallel determinism matrix (parallel_test.go) only proves
# anything when run with the race detector enabled.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# J2K_BENCH_SCALE=8 divides the paper's 3072x3072 workload; lower it
# for full-size runs.
bench:
	$(GO) test -bench . -benchmem -run '^$$' .

# bench-json reruns the hot-path benchmarks (simd kernels, Tier-1,
# rate control, fixed-vs-float lifting, end-to-end encode AND decode)
# and merges them with the committed pre-PR baseline into one JSON
# artifact with per-benchmark speedup ratios. The Benchmark_Kernel_*
# runs carry scalar/sse2/avx2 sub-benchmarks, so the SIMD speedup is
# visible inside the current run even where the baseline has no
# counterpart; BenchmarkDecodeParallelWorkers sweeps the decode
# pipeline's worker counts over {lossless, lossy} × {untiled, tiled};
# the Benchmark_HT* sweep prices the Part 15 high-throughput block
# coder on the same blocks as Benchmark_T1EncodeBlock, so the MQ→HT
# speedup ratio reads directly off the merged artifact;
# BenchmarkMixedConcurrency sweeps concurrent mixed load at c=1/4/8
# on the shared scheduler and reports the goroutine high-water mark
# per row; BenchmarkDecodeResilient prices the
# best-effort salvage path against the strict decoder on the same
# resilient stream, undamaged and damaged.
BENCH_JSON ?= BENCH_pr10.json
BENCH_BASELINE ?= bench/baseline_pr9.txt
bench-json:
	$(GO) test -run '^$$' -bench 'Benchmark_Kernel' -benchmem ./internal/simd/ > bench/current.txt
	$(GO) test -run '^$$' -bench 'Benchmark_T1|Benchmark_HT|Benchmark_RateControl' -benchmem ./internal/t1/ ./internal/rate/ >> bench/current.txt
	$(GO) test -run '^$$' -bench 'BenchmarkEncode|BenchmarkDecode|BenchmarkTable1|BenchmarkMixed' -benchmem . >> bench/current.txt
	$(GO) run ./cmd/benchjson -o $(BENCH_JSON) baseline=$(BENCH_BASELINE) current=bench/current.txt

# fuzz runs each decoder fuzz target for FUZZTIME (the CI robustness
# job uses 30s each; raise it for longer local campaigns). The -fuzz
# patterns are anchored because the package has multiple targets.
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/codec/ -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/codec/ -run '^$$' -fuzz '^FuzzDecodeHeaders$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/codec/ -run '^$$' -fuzz '^FuzzDecodeResilient$$' -fuzztime=$(FUZZTIME)

# trace produces sample Chrome traces (open in chrome://tracing or
# ui.perfetto.dev): the native encoder with one track per worker, and
# the simulated Cell with one track per modeled PE.
trace:
	mkdir -p examples
	$(GO) run ./cmd/j2kenc -dial 512 -workers 4 -out examples/dial.j2c -trace examples/trace-native.json -report
	$(GO) run ./cmd/cellbench -scale 8 -trace examples/trace-sim.json

check: build vet test race
