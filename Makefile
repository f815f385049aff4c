# Tier-1: the gate every change must pass.
.PHONY: build test tier1 vet gofmt purego fmacheck maxprocs1 maxprocs4 nnparanoid race servestress diststress bench benchreport benchsmoke doccheck deadcheck verify clean

BENCH_BASELINE := BENCH_kernels.json

build:
	go build ./...

test:
	go test ./...

tier1: build test

vet:
	go vet ./...

# gofmt fails on any Go file of the module, the nested bench/ module
# included, that gofmt would rewrite; .bench_build (bench/run.sh's
# build cache) is skipped.
gofmt:
	@out=$$(gofmt -l $$(find . -path ./.bench_build -prune -o -name '*.go' -print)); \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# purego runs the whole module with the assembly compiled out (the
# `purego` build tag selects the same portable files a non-amd64 host
# builds), so the pure-Go twins of every SIMD kernel (GEMM, quantize,
# vector add) and the dispatch that routes to them are tested on the
# amd64 hosts CI has, under every package that reaches them — the
# models, train, serve and fleet steps included: the dense layers reach
# the vector add's twin only through their conv's col2im. The kernel
# packages run a second time under the race detector, because the twins
# are scheduled on the same worker pool as the assembly they replace.
purego:
	go test -tags purego ./...
	go test -tags purego -race -count=1 ./internal/nn/ ./internal/tensor/ ./internal/quant/ ./internal/optim/

# fmacheck fails if the arm64 build of the kernel packages fuses a
# multiply into an add (FMADD/FMSUB/FNMADD/FNMSUB). The Go spec allows
# the fusion and the arm64 compiler does it, so a pure-Go twin would
# round differently there than its amd64 assembly — and a dist worker on
# arm64 would break dist == solo. Every such site rounds its product
# explicitly (float32(a*b) + c), which forbids the fusion and is a no-op
# on amd64.
fmacheck:
	@out=$$(GOARCH=arm64 go build -gcflags=-S ./internal/nn/ ./internal/tensor/ ./internal/quant/ ./internal/optim/ 2>&1 | grep -E '\bF(N)?M(ADD|SUB)[SD]\b'); \
	if [ -n "$$out" ]; then echo "fused multiply-adds in the arm64 build:"; echo "$$out"; exit 1; fi

# maxprocs1 runs the worker pool and what is scheduled on it with
# GOMAXPROCS=1: the pool sizes itself from GOMAXPROCS on first use, so
# this is the one-worker configuration no other target reaches
# (internal/nn's TestMain still raises it to two for its pooled-path
# tests) — and the serving tier on one P, where a replica loop that
# comes free drains the admission queue before anything else runs, so
# whatever samples the queue afterwards (the fleet autoscaler did) sees
# it empty under any load — and dist, whose coordinator event loop,
# sync-BN barrier handler goroutines and in-process workers then all
# share one P.
maxprocs1:
	GOMAXPROCS=1 go test -count=1 ./internal/nn/ ./internal/tensor/ ./internal/train/ ./internal/serve/ ./internal/fleet/ ./internal/dist/

# maxprocs4 runs the worker pool and what is scheduled on it with
# GOMAXPROCS=4, more Ps than the two cores CI and the reference host
# have: four shares per job, a worker descheduled mid-share, and the
# submitter and idle workers stealing from the ends of busy workers'
# shares — the paths two workers on two cores rarely take.
maxprocs4:
	GOMAXPROCS=4 go test -count=1 ./internal/tensor/ ./internal/nn/ ./internal/train/ ./internal/dist/

# nnparanoid reruns every internal package with the weight-version
# check switched on: an approximate layer keeps the quantized form of
# its weights per nn.Param version, and under this tag every reuse
# re-derives the levels from the float weights and panics, naming the
# layer, on a mismatch — so code (a test included) that writes
# Param.Value without Touch fails loudly instead of running on stale
# levels.
nnparanoid:
	go test -tags nnparanoid ./internal/...

# The concurrency-critical packages get a -race pass: the worker pool
# and the kernels scheduled on it, the guarded train loop, the retrying
# data pipeline, the fault injector, the serving subsystem's
# batcher/replica machinery, the shared frame/connection layer, and the
# two tiers built on it (distributed coordinator/worker, fleet
# router/worker).
race:
	go test -race -count=1 ./internal/tensor/ ./internal/nn/ ./internal/train/ ./internal/data/ ./internal/faults/ ./internal/serve/ ./internal/obs/ ./internal/wire/ ./internal/dist/ ./internal/fleet/

# servestress repeats the scheduling-sensitive serving tests under the
# race detector: the batcher's runner loops, drain and retire paths and
# the fleet's kill/hedge/expiry tests depend on goroutine interleavings
# that one pass does not sample.
servestress:
	go test -race -count=10 -run 'Batcher|Fleet' ./internal/serve ./internal/fleet

# diststress repeats the distributed-training and sync-BN tests under
# the race detector: the coordinator's attempt loop — deaths, requeues,
# the zero-worker wait, sync-BN aborts and retries — and the sync
# group's barrier and alternating slot sets depend on interleavings
# that one pass does not sample.
diststress:
	go test -race -count=10 -run 'Dist|SyncBN|BNSync' ./internal/dist ./internal/nn

# bench re-measures the micro-benchmark baseline (kernels, layers,
# training steps), fails loudly if anything regressed beyond benchdiff's
# tolerance, and promotes the new numbers.
bench:
	go run ./cmd/benchkernels -out $(BENCH_BASELINE).new
	go run ./scripts/benchdiff $(BENCH_BASELINE) $(BENCH_BASELINE).new
	mv $(BENCH_BASELINE).new $(BENCH_BASELINE)

# benchreport is the non-blocking flavor used by verify: quick
# (noisier) measurements, report-only diff. One check IS blocking: the
# benchmark name sets must match the committed baseline (-check-names
# with an unreachable tolerance), so adding or retiring a benchmark in
# cmd/benchkernels without regenerating BENCH_kernels.json fails loudly
# instead of silently losing coverage.
benchreport:
	go run ./cmd/benchkernels -quick -out $(BENCH_BASELINE).quick
	-go run ./scripts/benchdiff -tol 1.5 $(BENCH_BASELINE) $(BENCH_BASELINE).quick
	go run ./scripts/benchdiff -check-names -tol 1e9 $(BENCH_BASELINE) $(BENCH_BASELINE).quick
	-rm -f $(BENCH_BASELINE).quick

# benchsmoke runs the end-to-end benchmark's own tests (~20 s). bench/
# is a nested module, so `go test ./...` at the root never sees them;
# its -quick smoke is the check that each workload still reaches its
# kernel tier (vgg11 fused only, resnet18 affine only, lenet small
# only) after a dispatch gate moves.
benchsmoke:
	cd bench && go test ./...

# doccheck enforces doc comments on every exported identifier of every
# package under internal/, cmd/ and scripts/, and resolves every
# "ROADMAP item N" / "ROADMAP N(x)" reference in those packages' Go
# files and in the Markdown docs against ROADMAP.md's numbered items,
# and every "DESIGN.md §N" / "DESIGN §N(x)" reference against
# DESIGN.md's numbered sections and their sub-section markers, and every
# "path.go:N" / "path.go:N–M" / "path.go:N,M" reference (in Go files:
# in comments) against the repository's Go files (see scripts/doccheck).
# CHANGES.md is a log and keeps the numbering of its day; bench/README.md
# is the nested bench module's and is not scanned.
doccheck:
	go run ./scripts/doccheck -roadmap ROADMAP.md -design DESIGN.md -lines . README.md DESIGN.md EXPERIMENTS.md ROADMAP.md docs/*.md \
		$$(go list -f '{{.Dir}}' ./internal/... ./cmd/... ./scripts/...)

# deadcheck fails on an exported identifier, a method or an unexported
# func that no program reaches: no reference from a non-test file of
# either module (bench/ included) and none from another package's tests
# (see scripts/deadcheck; ~5 s).
deadcheck:
	go run ./scripts/deadcheck

verify: vet gofmt tier1 purego fmacheck maxprocs1 maxprocs4 nnparanoid benchsmoke doccheck deadcheck race servestress diststress benchreport

clean:
	go clean ./...
	rm -f $(BENCH_BASELINE).new $(BENCH_BASELINE).quick
