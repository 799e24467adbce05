GO ?= go
FUZZTIME ?= 10s

.PHONY: build test verify lint fuzz-short benchmark chaos-short loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# lint runs tsslint, the repo-invariant static analyzer (see DESIGN.md
# §9 for the enforced invariants). -time prints the package count and
# wall-clock of the analysis to stderr so lint latency regressions are
# visible in every run; -unused fails stale //lint:ignore suppressions
# out of the tree instead of letting them rot.
lint:
	$(GO) run ./cmd/tsslint -time -unused ./...

# verify runs the tier-1 gate (build + test) plus formatting, static
# analysis (go vet and tsslint), and the full suite under the race
# detector.
verify: build lint
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) test ./...
	$(GO) test -race ./...

# fuzz-short runs every fuzz target for FUZZTIME each — a cheap gate
# that replays and extends the checked-in corpora for the wire parser,
# digest trailer codec, ACL grammar, the software chroot, and the stack
# spec grammar.
fuzz-short:
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeRequest$$' -fuzztime=$(FUZZTIME) ./internal/chirp/proto/
	$(GO) test -run='^$$' -fuzz='^FuzzEncodeDecode$$' -fuzztime=$(FUZZTIME) ./internal/chirp/proto/
	$(GO) test -run='^$$' -fuzz='^FuzzEscape$$' -fuzztime=$(FUZZTIME) ./internal/chirp/proto/
	$(GO) test -run='^$$' -fuzz='^FuzzDigestTrailer$$' -fuzztime=$(FUZZTIME) ./internal/chirp/proto/
	$(GO) test -run='^$$' -fuzz='^FuzzACLParse$$' -fuzztime=$(FUZZTIME) ./internal/acl/
	$(GO) test -run='^$$' -fuzz='^FuzzConfine$$' -fuzztime=$(FUZZTIME) ./internal/pathutil/
	$(GO) test -run='^$$' -fuzz='^FuzzParseSpec$$' -fuzztime=$(FUZZTIME) ./internal/stackspec/

# benchmark runs the repository benchmark (BENCHMARK.json, benchmark/):
# five workloads on the real in-process stack, twelve end-to-end metrics
# each plus the per-layer trace, written to benchmark/out/result.json.
# Compare two results with `go run ./benchmark -compare base.json new.json`.
benchmark:
	$(GO) run ./benchmark

# loc prints non-test Go lines per package — the number CHANGES.md
# records per PR (ROADMAP aim 2: the expected direction is down).
loc:
	@$(GO) list -f '{{.ImportPath}} {{range .GoFiles}}{{$$.Dir}}/{{.}} {{end}}' ./... | \
	while read pkg files; do echo "$$(cat $$files </dev/null | wc -l) $$pkg"; done

# chaos-short runs the chaos tests: every canned fault timeline
# (partitions, flapping, slowness, corruption, torn writes,
# crash/restart, leases, overload) executed against the full stack
# with the whole-stack invariant checkers armed — under the race
# detector, since the chaos engine is the densest concurrency workout
# in the repo. The verbose test log lands in chaos_report.txt either
# way; each violation in it carries the (timeline, seed, step)
# coordinates that replay it.
chaos-short:
	@$(GO) test -race -count=1 -v -run 'Timeline|SplitBrain' ./internal/chaos/ > chaos_report.txt 2>&1; \
	status=$$?; cat chaos_report.txt; exit $$status
