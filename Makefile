# Convenience targets for the rdramstream reproduction.

GO ?= go

.PHONY: all build test vet lint bench bench-core profile figures examples cover fuzz serve clean

all: vet lint test build

build:
	$(GO) build ./...

vet:
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...

# Repo-specific static analysis (see docs/STATIC_ANALYSIS.md).
lint:
	$(GO) run ./cmd/rdlint -stats ./...

test:
	$(GO) test ./...

# One benchmark per paper table/figure plus simulator micro-benchmarks,
# then the pinned core-speed comparison (see docs/PERFORMANCE.md).
bench: bench-core
	$(GO) test -bench=. -benchmem ./...

# Re-records the after fields of BENCH_core_speed.json from the
# benchmarks its rows name. CI gates regressions with `rdprof -check`.
bench-core:
	$(GO) run ./cmd/rdprof -record BENCH_core_speed.json

# Full telemetry bundle (metrics.json, timeseries.csv, events.jsonl,
# trace.json) for the canonical daxpy/SMC/PI scenario, under profile/.
profile:
	$(GO) run ./cmd/rdsim -kernel daxpy -n 1024 -mode smc -scheme pi -fifo 128 -profile profile

# Regenerate every artifact: ASCII tables on stdout, CSV series and SVG
# figures under out/.
figures:
	$(GO) run ./cmd/paperfigs -csv out/csv -svg out/svg

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/scientific
	$(GO) run ./examples/multimedia
	$(GO) run ./examples/strides
	$(GO) run ./examples/tune
	$(GO) run ./examples/compileloop

cover:
	$(GO) test -covermode=atomic -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1

# Local simulation server with an on-disk result cache (see docs/SERVICE.md).
serve:
	$(GO) run ./cmd/rdserved -addr :8347 -cache-dir out/rdcache

# Short fuzz passes over the address mapper, the device protocol, the
# line issuer against its per-packet reference, the scenario validator,
# whole runs, the rdtrace/v1 decoder, the hit path's JSON reader and the
# trace reorder window against its reference scan: the eight targets CI
# fuzzes.
fuzz:
	$(GO) test -fuzz=FuzzMapUnmap -fuzztime=10s ./internal/addrmap/
	$(GO) test -fuzz=FuzzDeviceDo -fuzztime=10s ./internal/rdram/
	$(GO) test -fuzz=FuzzLinesMatchPackets -fuzztime=10s ./internal/engine/
	$(GO) test -fuzz=FuzzScenarioValidate -fuzztime=10s ./internal/sim/
	$(GO) test -fuzz=FuzzRun -fuzztime=10s ./internal/sim/
	$(GO) test -fuzz=FuzzDecode -fuzztime=10s ./internal/tracegen/
	$(GO) test -fuzz=FuzzWireReader -fuzztime=10s ./internal/service/
	$(GO) test -fuzz=FuzzReorderMatchesScan -fuzztime=10s ./internal/workload/

clean:
	rm -rf out
