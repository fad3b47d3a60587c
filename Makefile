# INSANE reproduction — common tasks. Run `make help` for a summary.

GO ?= go

.PHONY: all test perfbench-test fuzz remote-smoke perf-smoke race race-soak vet lint bench bench-isolation metrics-smoke experiments demo examples loc help

all: vet test lint ## vet + test + lint (the CI gate)

help: ## list the available targets
	@awk -F':.*## ' '/^[a-z-]+:.*## /{printf "  %-12s %s\n", $$1, $$2}' $(MAKEFILE_LIST)

test: ## run the full test suite
	$(GO) test ./...

perfbench-test: ## run the repository benchmark's own unit tests (own module and build tag, outside ./...)
	cd perfbench && $(GO) test -tags perfbench ./...

fuzz: ## fuzz the decoders a peer's bytes reach, the endpoint behind them and the streaming reassembly above them, 10 s each, from the committed seed corpora
	$(GO) test -run '^$$' -fuzz FuzzDecodeUDP -fuzztime=10s ./internal/netstack
	$(GO) test -run '^$$' -fuzz FuzzDecodeHeader -fuzztime=10s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzEndpointPoll -fuzztime=10s ./internal/datapath
	$(GO) test -run '^$$' -fuzz FuzzOnFragment -fuzztime=10s ./lunar/streaming

remote-smoke: ## 5 s traced benchmark pass over the fabric; fails on a failed operation or allocs_per_msg > 0.01
	mkdir -p .bench_build
	bash perfbench/run.sh --workload remote-dpdk --seed 1 --seconds 5 --trace 1 | tail -n 1 > .bench_build/remote-smoke.json
	python3 -c 'import json, sys; d = json.load(open(".bench_build/remote-smoke.json")); a = d["metrics"]["allocs_per_msg"]["value"]; print("remote-smoke: failed =", d["failed"], "allocs_per_msg =", a); sys.exit(d["failed"] > 0 or a > 0.01)'

perf-smoke: ## 3 s untraced pass of all four benchmark workloads; fails on a failed oracle or conservation check
	bash perfbench/run.sh --seconds 3 --trace 0

race: ## run the test suite under the race detector
	$(GO) test -race ./...

race-soak: ## COUNT=n RUN='A|B' PKG=./p/: the tests RUN selects in PKG, n times under -race; fails first if an alternative of RUN names no test
	@for alt in $$(echo '$(RUN)' | tr '|' ' '); do \
	  $(GO) test -list "$$alt" $(PKG) | grep -q '^Test' || { echo "race-soak: '$$alt' matches no test in $(PKG)"; exit 1; }; \
	done
	$(GO) test -race -count=$(COUNT) -run '$(RUN)' $(PKG)

vet: ## run go vet; fail on files gofmt would rewrite
	$(GO) vet ./...
	@out=$$(gofmt -l .); test -z "$$out" || { echo "gofmt -l:"; echo "$$out"; exit 1; }

lint: ## run the insanevet static-analysis suite (see README, "Static analysis"; one rule: go run ./cmd/insanevet -run <rule> ./...)
	$(GO) run ./cmd/insanevet ./...

bench: ## run every benchmark
	$(GO) test -bench=. -benchmem ./...

bench-isolation: ## run the tenant timing-isolation scenario and refresh BENCH_isolation.json
	$(GO) run ./cmd/insane-bench -isolation -isolation-out BENCH_isolation.json

metrics-smoke: ## boot a 2-node cluster, scrape /metrics, check the required series
	$(GO) run ./cmd/insane-info -metrics > /tmp/insane_metrics.prom
	@for series in insane_emits_total insane_consumes_total \
	  insane_tx_messages_total insane_rx_messages_total \
	  insane_consume_latency_seconds_bucket insane_sched_dwell_seconds_bucket \
	  insane_emit_pickup_seconds_bucket insane_mempool_gets_total \
	  insane_mempool_free_slots insane_mempool_committed_slots \
	  insane_emit_backpressure_total insane_sched_queue_depth \
	  insane_rx_malformed_drops_total insane_fabric_drops_total \
	  insane_rx_alloc_drops_total insane_poller_parks_total \
	  insane_poller_wakes_tx_total insane_poller_wakes_rx_total \
	  insane_poller_wakes_gate_timer_total insane_poller_idle_passes_total \
	  insane_consume_parks_total \
	  insane_tenant_emits_total insane_tenant_consumes_total \
	  insane_tenant_weight insane_tenant_mem_slots_used \
	  insane_tenant_tx_inflight insane_tenant_consume_latency_seconds_bucket; do \
	  grep -q "^$$series" /tmp/insane_metrics.prom || { echo "missing series: $$series"; exit 1; }; \
	done
	@echo "metrics-smoke: all required series present"

# Regenerate every table and figure of the paper's evaluation.
experiments: ## regenerate all paper tables and figures
	$(GO) run ./cmd/insane-bench

demo: ## run both §7 Lunar applications end to end
	$(GO) run ./cmd/lunar-demo

examples: ## run every example program
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/migration
	$(GO) run ./examples/mom-sensors
	$(GO) run ./examples/camera-streaming
	$(GO) run ./examples/tsn-control

# Non-test, non-fixture lines of Go per package directory: the figure the
# simplicity PRs in CHANGES.md quote.
loc: ## count non-test, non-testdata lines of Go per package directory
	@find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './.bench_build/*' | xargs wc -l | \
	  awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1 } END { for (d in n) printf "%7d  %s\n", n[d], d }' | sort -k2
