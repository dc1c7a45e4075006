.PHONY: all build test check docs bench bench-smoke clean

all: build

# Scratch outputs from smoke runs live under _build/ so they are covered
# by dune clean and never show up as untracked files.
SCRATCH = _build/smoke

build:
	dune build

test:
	dune runtest

# Everything a PR must keep green: build, the full test suite (which
# includes the golden test/golden/bench.t: every bench/main.exe --quick
# output at --jobs 1, --jobs 2 and on the interpreter, plus the benchmark
# self-test), the doc lint (see `docs`), a lint that keeps every
# process-wide cache on lib/util/memo.ml (no other lib/ module may call
# Mutex.create, except the trace buffer and compile2's lazy link locks),
# a pass-manager smoke run with inter-pass IR validation on (traced, so
# the trace layer stays wired end to end), the same validation on the
# paper-scale kernel, whose lax inlining grows syscall_entry to about
# 2,000 blocks, with its cleanup statistics pinned, the LLVM-default
# inliner's bottom-up walk over the same kernel with its inlining and
# cleanup statistics pinned, an out-of-range pass option that pipeline
# must reject with exit status 1 and a message naming the pass, the
# option and the value, the on-disk profile round trip (profile, then optimize from the
# written file), the two call-edge hook consumers outside the collector
# (trace, perf), a malformed profile that optimize must reject with exit
# status 1 and a FILE:LINE message, the attack drills under a combined
# defense set named the way the tools print it, and a one-window
# continuous-profiling smoke on the tiny kernel.
check:
	dune build
	dune runtest
	sh tools/check_mli_docs.sh
	! grep -l 'Mutex.create' lib/*/*.ml | grep -vx -e lib/util/memo.ml -e lib/trace/trace.ml -e lib/cpu/compile2.ml
	mkdir -p $(SCRATCH)
	dune exec bin/pibe_cli.exe -- pipeline --scale 1 \
	  --passes "icp(budget=99.999),inline(budget=99.9,lax),cleanup,retpoline,ret-retpoline" \
	  --verify --trace $(SCRATCH)/smoke_trace.json
	dune exec bin/pibe_cli.exe -- pipeline --scale 3 \
	  --passes "icp(budget=99.999),inline(budget=99.9999,lax),cleanup,retpoline,ret-retpoline,lvi-cfi" \
	  --verify > $(SCRATCH)/lax3.txt
	grep -qx '  cleanup: folded 159, branches 0, blocks removed 519, dead assigns 7838' \
	  $(SCRATCH)/lax3.txt
	dune exec bin/pibe_cli.exe -- pipeline --scale 3 \
	  --passes "icp(budget=99.999),llvm-inline(budget=99.9),cleanup" --verify > $(SCRATCH)/llvm3.txt
	grep -qx '  llvm-inline(budget=99.9): inlined 1051 sites (233233 weight; 137171 weight blocked by size)' \
	  $(SCRATCH)/llvm3.txt
	grep -qx '  cleanup: folded 153, branches 0, blocks removed 405, dead assigns 5576' \
	  $(SCRATCH)/llvm3.txt
	status=0; dune exec bin/pibe_cli.exe -- pipeline --scale 1 --passes "icp(max-targets=0)" \
	  2> $(SCRATCH)/bad_spec.err || status=$$?; test $$status -eq 1
	grep -qx 'invalid pipeline spec: pass icp: option max-targets must be at least 1, got "0"' \
	  $(SCRATCH)/bad_spec.err
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
	dune exec bin/pibe_cli.exe -- attack --scale 1 --defenses lvi-cfi+fineibt
	dune exec bin/pibe_cli.exe -- online --scale 1 --windows 1 --requests 30

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

clean:
	dune clean
