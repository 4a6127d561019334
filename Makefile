GO ?= go

.PHONY: build test race vet bench trace fuzz check

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

# fuzz runs the six fuzz targets of the CI robustness job — the three
# decoder targets and the three HT block coder targets — for FUZZTIME
# each (CI uses 30s; raise it for longer local campaigns). The -fuzz
# patterns are anchored because each package has multiple targets.
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/codec/ -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/codec/ -run '^$$' -fuzz '^FuzzDecodeHeaders$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/codec/ -run '^$$' -fuzz '^FuzzDecodeResilient$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/t1/ -run '^$$' -fuzz '^FuzzHTRoundTrip$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/t1/ -run '^$$' -fuzz '^FuzzHTEncodeMatchesOracle$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/t1/ -run '^$$' -fuzz '^FuzzHTDecodeMatchesOracle$$' -fuzztime=$(FUZZTIME)

# trace produces sample Chrome traces (open in chrome://tracing or
# ui.perfetto.dev): the native encoder and decoder with one track per
# worker, and the simulated Cell with one track per modeled PE. The
# decode also prints its per-op -report and -metrics tables.
trace:
	mkdir -p examples
	$(GO) run ./cmd/j2kenc -dial 512 -workers 4 -out examples/dial.j2c -trace examples/trace-native.json -report
	$(GO) run ./cmd/j2kdec -in examples/dial.j2c -out examples/dial-decoded.ppm -workers 4 -report -metrics -trace examples/trace-decode.json
	$(GO) run ./cmd/cellbench -scale 8 -trace examples/trace-sim.json

check: build vet test race
