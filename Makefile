# Build and verification targets. `make check` is the tier-1 gate
# (build, vet, gofmt, test) and includes the RIB memory-model and
# delivery-allocation ceilings and the -workers and run-to-run
# determinism tests, which are ordinary tests; `make race` adds the
# race detector; `make outputs-check` holds every deterministic command
# output to its committed digest and fails when outputs that must be
# equal (at 1 and 4 workers, cold and resumed) differ. Performance is
# measured by benchmark/ (see BENCHMARK.json: `bash benchmark/run.sh`),
# not from here.

GO ?= go

.PHONY: build check vet fmt test race outputs-check fuzz cover

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Any file gofmt would rewrite fails the gate.
fmt:
	test -z "$$(gofmt -l .)"

test:
	$(GO) test ./...

check: build vet fmt test

race:
	$(GO) test -race ./...

# "No output byte moved": rerun scripts/outputs.sh's fixed matrix of
# seeded commands and diff the digests against testdata/outputs.sha256.
# A change that moves output bytes re-pins the file with
# `sh scripts/outputs.sh`, and its diff names every output that moved.
outputs-check:
	@tmp="$$(mktemp)"; sh scripts/outputs.sh "$$tmp" && diff -u testdata/outputs.sha256 "$$tmp"; \
		status=$$?; rm -f "$$tmp"; exit $$status

# Every native fuzz target, 30s each (override with FUZZTIME); CI runs
# the same list as its fuzz smoke step.
FUZZTIME ?= 30s

fuzz:
	$(GO) test -run '^$$' -fuzz FuzzReadJSON -fuzztime $(FUZZTIME) ./internal/probe/
	$(GO) test -run '^$$' -fuzz FuzzSlotRoundTrip -fuzztime $(FUZZTIME) ./internal/probe/
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/irr/
	$(GO) test -run '^$$' -fuzz 'FuzzReader$$' -fuzztime $(FUZZTIME) ./internal/mrt/
	$(GO) test -run '^$$' -fuzz FuzzRoundTrip -fuzztime $(FUZZTIME) ./internal/mrt/
	$(GO) test -run '^$$' -fuzz FuzzIncrementalEvents -fuzztime $(FUZZTIME) ./internal/bgp/
	$(GO) test -run '^$$' -fuzz FuzzSnapshotDecode -fuzztime $(FUZZTIME) ./internal/bgp/
	$(GO) test -run '^$$' -fuzz FuzzCheckpointDecode -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzIntern -fuzztime $(FUZZTIME) ./internal/bgp/pathtab/
	$(GO) test -run '^$$' -fuzz FuzzValidate -fuzztime $(FUZZTIME) ./internal/rpki/
	$(GO) test -run '^$$' -fuzz FuzzObjectiveDecode -fuzztime $(FUZZTIME) ./internal/optimize/
	$(GO) test -run '^$$' -fuzz FuzzSearchStateRoundTrip -fuzztime $(FUZZTIME) ./internal/optimize/
	$(GO) test -run '^$$' -fuzz FuzzRandMatchesMathRand -fuzztime $(FUZZTIME) ./internal/parallel/
	$(GO) test -run '^$$' -fuzz FuzzParsePrefix -fuzztime $(FUZZTIME) ./internal/netutil/
	$(GO) test -run '^$$' -fuzz FuzzQueueMatchesReference -fuzztime $(FUZZTIME) ./internal/vtime/
	$(GO) test -run '^$$' -fuzz FuzzJobSpec -fuzztime $(FUZZTIME) ./internal/serve/
	$(GO) test -run '^$$' -fuzz FuzzLoadState -fuzztime $(FUZZTIME) ./internal/telemetry/

# Statement-coverage floors, one pkg:floor pair per internal package
# whose tests the rest of the tree leans on: the BGP engine (the
# decision path's differential harness), the snapshot container (every
# checkpoint rides on its integrity checks), the event engine, the
# workload generators, origin validation, the fault injector, the
# search harness, the survey pipeline with its analysis pass, the job
# service, and the commands' shared flag set. CI runs this target.
COVER_FLOORS := bgp:80 snapshot:85 vtime:80 workload:80 rpki:85 faults:80 optimize:80 core:75 serve:80 cliconf:94

cover:
	@set -e; for pf in $(COVER_FLOORS); do \
		pkg=$${pf%%:*}; floor=$${pf##*:}; \
		$(GO) test -coverprofile=$$pkg.cov ./internal/$$pkg/; \
		$(GO) tool cover -func=$$pkg.cov | awk -v pkg=$$pkg -v floor=$$floor '/^total:/ { sub(/%/, "", $$3); if ($$3 + 0 < floor) { printf "internal/%s coverage %.1f%% below %d%% floor\n", pkg, $$3, floor; exit 1 } else printf "internal/%s coverage %.1f%%\n", pkg, $$3 }'; \
		rm -f $$pkg.cov; \
	done
