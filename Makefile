# Convenience targets; `make ci` mirrors .github/workflows/ci.yml.

DUNE ?= dune
KERNEL = kernels/inverse_helmholtz.cfd

.PHONY: all build test bench exec cache lint profile memprof timeline ci clean

all: build

build:
	$(DUNE) build @all

test:
	$(DUNE) runtest --force

bench:
	$(DUNE) exec bench/main.exe

# Execution-engine benchmark + timed floors: run the exec benchmark at
# a small polynomial order (its functional-simulation leg sweeps the
# jobs x elements matrix) and fail if the element-sharded simulator
# regresses -- jobs:1 overhead beyond 5% of the sequential baseline, or
# a parallel headline below 1.0x on a multi-core host
# (scripts/check_bench_exec.py documents the exact floors). The
# parallel headline runs one domain per host core
# (Domain.recommended_domain_count): more domains than cores would time
# the runtime's GC synchronisation, not the simulator.
exec: build
	python3 scripts/check_bench_exec_test.py
	@mkdir -p bench-out
	$(DUNE) exec --no-build bench/main.exe -- exec --exec-p=4 \
	  --no-trace --out=bench-out
	python3 scripts/check_bench_exec.py bench-out/BENCH_exec.json

# Artifact-cache benchmark + timed floor (docs/CACHING.md): time cold vs
# warm compile+check and fail if the warm run is under 5x. Then
# exercise the CLI path end to end: two cached `cfdc check` runs through
# CFDC_CACHE_DIR must agree byte for byte, and `cfdc cache stat`
# reports the store.
cache: build
	python3 scripts/check_bench_exec_test.py
	@mkdir -p bench-out
	$(DUNE) exec --no-build bench/main.exe -- cache --no-trace --out=bench-out
	python3 scripts/check_bench_exec.py bench-out/BENCH_cache.json
	@rm -rf bench-out/cache-demo
	CFDC_CACHE_DIR=bench-out/cache-demo \
	  $(DUNE) exec --no-build bin/cfdc.exe -- check $(KERNEL) \
	  > bench-out/cache-demo-cold.txt
	CFDC_CACHE_DIR=bench-out/cache-demo \
	  $(DUNE) exec --no-build bin/cfdc.exe -- check $(KERNEL) \
	  > bench-out/cache-demo-warm.txt
	cmp bench-out/cache-demo-cold.txt bench-out/cache-demo-warm.txt
	$(DUNE) exec --no-build bin/cfdc.exe -- cache stat \
	  --cache-dir=bench-out/cache-demo
	@echo "cache: warm CLI check byte-identical to cold"

# Static verification of every kernel in the tree (docs/ANALYSIS.md):
# dependence preservation, bounds, PLM sharing soundness. Warnings fail
# the lint too, so an unused input or a port-pressure regression is
# caught before it reaches a board. Then the cost differential: the
# static analyzer's predictions must match one recorded functional
# simulation on every kernel in both sharing modes (any cost-drift-*
# diagnostic exits non-zero); the JSON cost reports land in cost-out/,
# must parse as JSON, and CI keeps them as artifacts.
lint: build
	@for k in kernels/*.cfd examples/*.cfd; do \
	  [ -e "$$k" ] || continue; \
	  echo "lint $$k"; \
	  $(DUNE) exec --no-build bin/cfdc.exe -- check "$$k" --fail-on-warning || exit 1; \
	done
	@mkdir -p cost-out
	@for k in kernels/*.cfd; do \
	  name=$$(basename "$$k" .cfd); \
	  for sharing in true false; do \
	    echo "cost --diff $$k --sharing $$sharing"; \
	    $(DUNE) exec --no-build bin/cfdc.exe -- cost "$$k" --diff \
	      --sharing $$sharing --sim-elements 3 \
	      --json "cost-out/$$name-sharing-$$sharing.json" > /dev/null || exit 1; \
	    python3 -m json.tool "cost-out/$$name-sharing-$$sharing.json" \
	      > /dev/null || exit 1; \
	  done; \
	done
	@echo "lint: zero cost drift across kernels x sharing"

# Profile one end-to-end run of the flow (docs/OBSERVABILITY.md):
# compile + static check + system build + perf model + functional sim,
# writing a Perfetto-loadable Chrome trace and a metrics JSON, then
# validate both files parse as JSON.
profile: build
	$(DUNE) exec --no-build bin/cfdc.exe -- profile kernels/helmholtz.cfd \
	  --trace profile_trace.json --metrics profile_metrics.json --summary
	python3 -m json.tool profile_trace.json > /dev/null
	python3 -m json.tool profile_metrics.json > /dev/null
	@echo "profile_trace.json and profile_metrics.json are valid JSON"

# Dynamic memory audit of every kernel (docs/OBSERVABILITY.md): run each
# one through the instrumented engine in both memgen modes and check the
# observed live intervals against the static model. cfdc memprof exits
# non-zero on any memprof-* diagnostic, so a kernel whose dynamic
# behaviour escapes its licensed architecture fails the build. The JSON
# profiles and counter traces are kept as artifacts.
memprof: build
	@mkdir -p memprof-out
	@for k in kernels/*.cfd; do \
	  name=$$(basename "$$k" .cfd); \
	  echo "memprof $$k"; \
	  $(DUNE) exec --no-build bin/cfdc.exe -- memprof "$$k" --name "$$name" \
	    --sim-elements 2 \
	    --json "memprof-out/$$name.json" \
	    --trace "memprof-out/$$name.trace.json" || exit 1; \
	done
	@echo "memprof: all kernels audited clean"

# Device-cycle timeline of every kernel (docs/OBSERVABILITY.md): trace
# both the plain and double-buffered legs on the modeled cycle clock
# (the phases of Sim.Perf's block schedule, the one cycle model) and keep
# the Chrome traces + derived-metric JSON as artifacts. cfdc timeline
# exits non-zero on a sim-overlap-infeasible error; both outputs must
# parse as JSON.
timeline: build
	@mkdir -p timeline-out
	@for k in kernels/*.cfd; do \
	  name=$$(basename "$$k" .cfd); \
	  echo "timeline $$k"; \
	  $(DUNE) exec --no-build bin/cfdc.exe -- timeline "$$k" --name "$$name" \
	    --elements 512 --json \
	    --trace "timeline-out/$$name.trace.json" \
	    > "timeline-out/$$name.json" || exit 1; \
	  python3 -m json.tool "timeline-out/$$name.json" > /dev/null || exit 1; \
	  python3 -m json.tool "timeline-out/$$name.trace.json" > /dev/null || exit 1; \
	done
	@echo "timeline: all kernels traced (plain and overlapped legs, JSON valid)"

# Build everything, run the full suite, the static and dynamic audits
# and the two timed benchmarks, then smoke-test the exploration engine
# at jobs=1 and at jobs=4 with the static pre-filter (the sweep itself
# asserts the two agree in test/test_differential.ml; this exercises
# the CLI path end to end).
ci: build test lint profile memprof timeline exec cache
	$(DUNE) exec bin/cfdc.exe -- explore $(KERNEL) --jobs 1 --stats
	$(DUNE) exec bin/cfdc.exe -- explore $(KERNEL) --jobs 4 --prefilter --stats

clean:
	$(DUNE) clean
	rm -rf bench-out cost-out memprof-out timeline-out crash-reports .cfdc-cache
