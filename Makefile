.PHONY: all build test check docs bench bench-smoke bench-smoke-fleet bench-smoke-frontier bench-smoke-stale parity clean

all: build

# Scratch outputs from smoke/parity runs live under _build/ so they are
# covered by dune clean and never show up as untracked files.
SCRATCH = _build/smoke

build:
	dune build

test:
	dune runtest

# Everything a PR must keep green: build, the full test suite, the doc
# lint (see `docs`), a pass-manager smoke run with inter-pass IR
# validation on (traced, so the trace layer stays wired end to end), the
# same validation on the paper-scale kernel, whose lax inlining grows
# syscall_entry to about 2,000 blocks, the on-disk profile round trip
# (profile, then optimize from the written file), the two call-edge hook
# consumers outside the collector (trace, perf), a malformed profile
# that optimize must reject with exit status 1 and a FILE:LINE message,
# a one-window continuous-profiling smoke on the tiny kernel, the fleet,
# frontier and stale/fixpoint jobs-invariance smokes, a dispatch-floor
# microbenchmark smoke (backend table prints end to end), and the
# cross-backend parity smoke (see `parity`).
check:
	dune build
	dune runtest
	sh tools/check_mli_docs.sh
	mkdir -p $(SCRATCH)
	dune exec bin/pibe_cli.exe -- pipeline --scale 1 \
	  --passes "icp(budget=99.999),inline(budget=99.9,lax),cleanup,retpoline,ret-retpoline" \
	  --verify --trace $(SCRATCH)/smoke_trace.json --trace-format chrome
	dune exec bin/pibe_cli.exe -- pipeline --scale 3 \
	  --passes "icp(budget=99.999),inline(budget=99.9999,lax),cleanup,retpoline,ret-retpoline,lvi-cfi" \
	  --verify
	dune exec bin/pibe_cli.exe -- profile --scale 1 --out $(SCRATCH)/profile.txt
	dune exec bin/pibe_cli.exe -- optimize --scale 1 --profile $(SCRATCH)/profile.txt \
	  --out $(SCRATCH)/image.ir
	dune exec bin/pibe_cli.exe -- trace --scale 1 read
	dune exec bin/pibe_cli.exe -- perf --scale 1 --op read
	printf 'profile {\n  direct 1 = -5\n}\n' > $(SCRATCH)/bad_profile.txt
	status=0; dune exec bin/pibe_cli.exe -- optimize --scale 1 \
	  --profile $(SCRATCH)/bad_profile.txt --out $(SCRATCH)/bad_image.ir \
	  2> $(SCRATCH)/bad_profile.err || status=$$?; test $$status -eq 1
	grep -qx '$(SCRATCH)/bad_profile.txt:2: negative count -5' $(SCRATCH)/bad_profile.err
	dune exec bin/pibe_cli.exe -- online --scale 1 --windows 1 --requests 30
	$(MAKE) bench-smoke-fleet
	$(MAKE) bench-smoke-frontier
	$(MAKE) bench-smoke-stale
	dune exec bench/dispatch_bench.exe -- --quick
	$(MAKE) parity

# Cross-backend parity smoke: the bench-smoke workload once per
# execution backend, outputs diffed byte-for-byte (only the wall-clock
# footer line is stripped — everything simulated must be identical).
# Two legs: the default compiled engine (lazy superblock traces) and the
# reference interpreter.  The workload includes one frontier config so
# the CFI/PAC cost paths are proven bit-exact across engines too.
parity:
	dune build bench/main.exe
	mkdir -p $(SCRATCH)
	dune exec bench/main.exe -- --quick --table 5 --online --frontier --stale --jobs 2 \
	  | sed '/^\[bench harness finished/d' > $(SCRATCH)/parity_compiled.txt
	dune exec bench/main.exe -- --quick --table 5 --online --frontier --stale --jobs 2 \
	  --engine interp | sed '/^\[bench harness finished/d' > $(SCRATCH)/parity_interp.txt
	cmp $(SCRATCH)/parity_compiled.txt $(SCRATCH)/parity_interp.txt
	@echo "parity: compiled and interp outputs are byte-identical"

# Documentation: lint that every public module in lib/ carries a
# top-level (** ... *) summary, then build the odoc pages.  The odoc
# build is gated on the tool being installed (this container ships
# dune but no odoc); the lint — the part that catches missing module
# docs — runs everywhere and fails the build on a miss.
docs:
	sh tools/check_mli_docs.sh
	@if command -v odoc >/dev/null 2>&1; then \
	  dune build @doc && echo "odoc pages under _build/default/_doc/_html"; \
	else \
	  echo "odoc not installed; skipped page build (doc lint passed)"; \
	fi

# Full evaluation: every table/figure of the paper at benchmark scale.
bench:
	dune exec bench/main.exe

# Fast sanity pass: small kernel, one table plus the online loop, two
# domains.  Exercises the parallel runner end to end in a few seconds
# and captures a Chrome trace of the whole run (load the .json in
# chrome://tracing or https://ui.perfetto.dev).
bench-smoke:
	mkdir -p $(SCRATCH)
	dune exec bench/main.exe -- --quick --table 5 --online --jobs 2 \
	  --trace $(SCRATCH)/bench_smoke_trace.json

# Fleet smoke (part of `check`): a small fleet (6 instances, 2 domains)
# through the sharded aggregator and the staged canary rollout, run
# twice — parallel and sequential — with the outputs diffed
# byte-for-byte, so the jobs-invariance contract of lib/online/fleet.ml
# is enforced on every PR.
bench-smoke-fleet:
	dune build bench/main.exe
	mkdir -p $(SCRATCH)
	dune exec bench/main.exe -- --quick --fleet --jobs 2 \
	  | sed '/^\[bench harness finished/d' > $(SCRATCH)/fleet_smoke_j2.txt
	dune exec bench/main.exe -- --quick --fleet --jobs 1 \
	  | sed '/^\[bench harness finished/d' > $(SCRATCH)/fleet_smoke_j1.txt
	cmp $(SCRATCH)/fleet_smoke_j1.txt $(SCRATCH)/fleet_smoke_j2.txt
	@echo "fleet smoke: sequential and parallel outputs are byte-identical"

# Frontier smoke (part of `check`): the overhead-vs-security frontier
# and tables 5-7 on the tiny kernel, sequential vs parallel, byte-diffed
# — pins the defense ledger, the jobs-invariance of the CFI/PAC paths,
# and the pass manager's optimization-prefix reuse: the tables' defense
# sets share each prefix, so parallel cells race to insert the same
# entry.
bench-smoke-frontier:
	dune build bench/main.exe
	mkdir -p $(SCRATCH)
	dune exec bench/main.exe -- --quick --frontier --table 5 --table 6 --table 7 --jobs 2 \
	  | sed '/^\[bench harness finished/d' > $(SCRATCH)/frontier_smoke_j2.txt
	dune exec bench/main.exe -- --quick --frontier --table 5 --table 6 --table 7 --jobs 1 \
	  | sed '/^\[bench harness finished/d' > $(SCRATCH)/frontier_smoke_j1.txt
	cmp $(SCRATCH)/frontier_smoke_j1.txt $(SCRATCH)/frontier_smoke_j2.txt
	@echo "frontier smoke: sequential and parallel outputs are byte-identical"

# Stale/fixpoint smoke (part of `check`): the k-stale-profile experiment
# plus the iterative build->profile-on-hardened->rebuild loop on the
# tiny kernel, sequential vs parallel, byte-diffed — pins the kernel
# evolution generator, the staleness matcher, and the provenance-lifted
# collection path to the jobs-invariance contract.
bench-smoke-stale:
	dune build bench/main.exe
	mkdir -p $(SCRATCH)
	dune exec bench/main.exe -- --quick --stale --fixpoint --jobs 2 \
	  | sed '/^\[bench harness finished/d' > $(SCRATCH)/stale_smoke_j2.txt
	dune exec bench/main.exe -- --quick --stale --fixpoint --jobs 1 \
	  | sed '/^\[bench harness finished/d' > $(SCRATCH)/stale_smoke_j1.txt
	cmp $(SCRATCH)/stale_smoke_j1.txt $(SCRATCH)/stale_smoke_j2.txt
	@echo "stale smoke: sequential and parallel outputs are byte-identical"

clean:
	dune clean
