GO ?= go

# Pinned third-party linter versions; CI installs exactly these.
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: build test vet race bench fuzz-smoke docs smoke lint audit ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test: vet
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Documentation hygiene: vet, run every runnable Example against its
# expected output, and build the examples/ programs so the documented
# snippets cannot rot.
docs: vet
	$(GO) test -run 'Example' ./...
	$(GO) build ./examples/...

# Go benchmarks of the root package — every paper table/figure plus the
# batch engine in process (BenchmarkQueryBatch) and against a cloud behind
# net.Pipe and TCP loopback (BenchmarkRemoteQueryBatch) — and of
# internal/technique (BenchmarkNoIndSearchCached: one warm cached search
# over columns 100x apart in size). Numbers to read while working; the gate
# that decides a PR is `go run ./bench`.
bench:
	$(GO) test -bench=. -benchmem -run='^$$' . ./internal/technique

# Fuzz smoke: run each binary-codec fuzz target's mutation engine briefly
# (the seed corpora already run as plain tests on every `make test`). The
# targets cover the framed-protocol attack surface: request/response body
# decoders and the length-prefixed frame reader.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzDecodeBinRequest -fuzztime=$(FUZZTIME) ./internal/wire
	$(GO) test -run='^$$' -fuzz=FuzzDecodeBinResponse -fuzztime=$(FUZZTIME) ./internal/wire
	$(GO) test -run='^$$' -fuzz=FuzzReadFrame -fuzztime=$(FUZZTIME) ./internal/wire
	$(GO) test -run='^$$' -fuzz=FuzzDecodeTuple -fuzztime=$(FUZZTIME) ./internal/relation

# End-to-end smoke against the real binaries: a seconds-long open-loop
# qbload run with a mid-run SIGKILL + snapshot restart, reference checks
# on every read and the -assert gate (nonzero QPS, zero errors, zero check
# failures, sane percentiles). One line, three arms:
#   - one qbcloud, owner cache on;
#   - the same with -cache=false, so a regression only the uncached
#     per-query-pull path would hit still fails CI, and the two arms
#     together cover cached-vs-uncached equivalence under kill/restart
#     (the -check reference bounds are identical in both);
#   - three qbcloud nodes behind qbring: node 0 is the victim, failover
#     must keep every query answering and anti-entropy must bring the
#     restarted node back.
# On the two single-node arms -assert also stops the restarted qbcloud and
# requires its per-store shutdown stats to name every tenant namespace.
# Read-only traffic because the snapshot restore is lossy for
# post-snapshot writes by design. Set QBLOAD_BUILDFLAGS=-race to run every
# process of all three arms under the race detector.
QBLOAD_BUILDFLAGS ?=
smoke:
	$(GO) build $(QBLOAD_BUILDFLAGS) -o bin/qbcloud ./cmd/qbcloud
	$(GO) build $(QBLOAD_BUILDFLAGS) -o bin/qbring ./cmd/qbring
	$(GO) build $(QBLOAD_BUILDFLAGS) -o bin/qbload ./cmd/qbload
	set -e; for arm in "" "-cache=false" "-ring 3 -qbring bin/qbring"; do \
		bin/qbload -qbcloud bin/qbcloud -tenants 2 -clients 3 -rate 300 -duration 4s \
			-read-frac 1 -kill-at 1500ms -restart-after 400ms -check -assert $$arm; \
	done

# Static analysis. go vet (whose copylocks check is the repo's rule against
# copied mutexes) and qbvet (the repo's own go/analysis-style suite:
# sensleak, lockdiscipline, cmpconst, nakedclock) are stdlib-only and
# always run. staticcheck and govulncheck run when installed — CI installs
# the pinned versions above; offline sandboxes skip them with a notice.
lint: vet
	$(GO) build -o bin/qbvet ./cmd/qbvet
	bin/qbvet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION))"; \
	fi

# Audit report: qbvet findings + per-package statement coverage, written to
# docs/AUDIT.md. COVER_FLOOR makes the run fail when statement coverage
# outside bench/ drops below the recorded baseline (see
# .github/workflows/ci.yml); bench/ is frozen between [benchmark] changes,
# so its row and the all-in figure are printed but not gated.
COVER_FLOOR ?= 0
audit:
	$(GO) build -o bin/qbaudit ./cmd/qbaudit
	bin/qbaudit -floor $(COVER_FLOOR)

ci: build lint test race docs fuzz-smoke smoke
