# Developer entry points.  `make verify` is what CI should run: the
# tier-1 suite as-is, then again with the fault-injection smoke profile
# enabled so the degraded (retry/fallback) path is exercised end to end,
# then the hardening tier (protocol fuzz, codec properties, the frozen
# golden trace), the tracing smoke run, the two guarding ablations
# (`ablation-smoke`: the τ controller on a degrading link and the
# edge-load study, with timing off) and a smoke run of the end-to-end
# benchmark (`make bench-e2e` is the full one).  `make fuzz` reruns the
# property suites under the randomized Hypothesis profile.
# REPRO_FAULT_PROFILE selects the profile consumed by tests/test_faults.py
# (none | smoke | harsh | partition); REPRO_REGEN_GOLDEN=1 retrains the
# golden checkpoint at one OpenBLAS thread and rewrites the golden
# fixtures after an intentional behaviour change.
# `make golden-threads` runs both golden suites at one and at two
# OpenBLAS threads, and under the Haswell and SandyBridge OpenBLAS
# kernels: they load a committed checkpoint, and inference BLAS is left
# only in the convs, so none of these may move them.  SandyBridge has no
# FMA, so there the stem conv steps down to its matmul tier.

PY ?= python
PYTEST = PYTHONPATH=src $(PY) -m pytest -x -q

.PHONY: test fault-smoke trace-smoke plan-smoke fleet-smoke obs-smoke tau-smoke ablation-smoke golden golden-threads stress fuzz verify bench bench-e2e bench-e2e-smoke bench-sched bench-par bench-plan bench-fleet bench-tau bench-check bench-check-dry

test:
	$(PYTEST)

fault-smoke:
	REPRO_FAULT_PROFILE=smoke $(PYTEST) tests/test_faults.py tests/test_session.py tests/test_batched_session.py tests/test_session_protocol.py tests/test_protocol.py

trace-smoke:
	PYTHONPATH=src $(PY) benchmarks/trace_smoke.py

plan-smoke:
	$(PYTEST) -m plan tests/test_plan_properties.py tests/test_golden_trace.py

fleet-smoke:
	$(PYTEST) -m "fleet and not sched" tests/test_fleet.py

obs-smoke:
	$(PYTEST) -m obs tests/test_observability.py tests/test_windows.py tests/test_slo.py

tau-smoke:
	$(PYTEST) -m tau tests/test_tau_control.py tests/test_tiered_branch.py tests/test_golden_tau.py

ablation-smoke:
	$(PYTEST) --benchmark-disable benchmarks/test_ablation_adaptive_tau.py benchmarks/test_ablation_edge_load.py

golden:
	$(PYTEST) tests/test_protocol_fuzz.py tests/test_codec_properties.py tests/test_golden_trace.py tests/test_parallel.py

golden-threads:
	OPENBLAS_NUM_THREADS=1 $(PYTEST) tests/test_golden_tau.py tests/test_golden_trace.py
	OPENBLAS_NUM_THREADS=2 $(PYTEST) tests/test_golden_tau.py tests/test_golden_trace.py
	OPENBLAS_CORETYPE=Haswell $(PYTEST) tests/test_golden_tau.py tests/test_golden_trace.py
	OPENBLAS_CORETYPE=SandyBridge $(PYTEST) tests/test_golden_tau.py tests/test_golden_trace.py

stress:
	$(PYTEST) -m par tests/test_thread_safety.py

# Exploratory: randomized examples, many more of them, with the example
# database on.  Commit anything it finds as an explicit @example.
fuzz:
	$(PYTEST) --hypothesis-profile=fuzz tests/test_codec_properties.py tests/test_protocol_wire.py tests/test_properties.py tests/test_properties_extensions.py tests/test_plan_properties.py tests/test_tau_control.py tests/test_observability.py tests/test_windows.py tests/test_faults.py tests/test_gate_records.py

verify: test fault-smoke golden golden-threads stress trace-smoke plan-smoke fleet-smoke obs-smoke tau-smoke ablation-smoke bench-check-dry bench-e2e-smoke

bench:
	PYTHONPATH=src $(PY) benchmarks/bench_kernels.py

# The repo benchmark (BENCHMARK.json): every workload in its own process,
# untraced then traced; results land in bench_results/.
bench-e2e:
	$(PY) benchmarks/e2e/run.py --seed 0 --out bench_results/

bench-e2e-smoke:
	$(PY) benchmarks/e2e/run.py --seed 0 --smoke

bench-sched:
	PYTHONPATH=src $(PY) benchmarks/bench_scheduler.py

bench-par:
	PYTHONPATH=src $(PY) benchmarks/bench_parallel.py

bench-plan:
	PYTHONPATH=src $(PY) benchmarks/bench_plan.py

bench-fleet:
	PYTHONPATH=src $(PY) benchmarks/bench_fleet.py

bench-tau:
	PYTHONPATH=src $(PY) benchmarks/bench_tau.py

# Diff the committed BENCH_*.json headline ratios against their floors.
# bench-check requires the files; bench-check-dry tolerates missing ones
# (fresh clone) but still fails on a recorded regression.
bench-check:
	$(PY) benchmarks/bench_check.py

bench-check-dry:
	$(PY) benchmarks/bench_check.py --dry-run
