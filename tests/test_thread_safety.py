"""Concurrency stress suite: the library's thread-safety contract.

The program runs on the caller's thread (the edge's c workers are a
simulated model), but callers may share the library across their own
threads, so the engine is thread-safe end-to-end — no-grad mode is
thread-local, kernel and geometry caches are locked, counters take
atomic adds, and a shared :class:`EdgeEndpoint` keeps one compiled plan
per key whose internal lock serializes replays.  These tests hammer
each piece from the tests' own threads and assert *exact* outcomes: bit
wise-identical predictions versus serial, and counter totals exactly
equal to the summed per-thread work.  Lost-update races are
probabilistic, so the hammer tests use barriers and enough iterations
that the pre-fix code fails them reliably.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.nn.autograd import Tensor, is_grad_enabled, no_grad
from repro.observability.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.runtime import LCRSDeployment, SessionConfig, four_g
from repro.runtime.session import EdgeEndpoint
from repro.wasm.bitpack import (
    last_dot_stats,
    pack_signs,
    packed_dot,
    total_bytes_popcounted,
)
from repro.wasm.interpreter import (
    clear_geometry_cache,
    conv_geometry,
    geometry_cache_info,
)

pytestmark = pytest.mark.par

THREADS = 4
ITERS = 200


def _run_threads(n, target):
    """Start n threads on target(idx), join, and re-raise any failure."""
    errors = []

    def wrapped(idx):
        try:
            target(idx)
        except BaseException as exc:  # noqa: BLE001 - reported to pytest
            errors.append(exc)

    threads = [threading.Thread(target=wrapped, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


# ----------------------------------------------------------------------
# Satellite (a): thread-local last_dot_stats
# ----------------------------------------------------------------------
class TestThreadLocalDotStats:
    def test_each_thread_reads_its_own_last_stats(self):
        """Concurrent packed_dot calls never see another thread's stats."""
        rng = np.random.default_rng(0)
        barrier = threading.Barrier(THREADS)

        def work(idx):
            rows = 2 + idx  # distinct output shape per thread
            signs = rng.random((rows, 64)) > 0.5
            packed, length = pack_signs(signs)
            barrier.wait()
            for _ in range(ITERS):
                packed_dot(packed, packed, length=length)
                stats = last_dot_stats()
                assert stats.output_shape == (rows, rows), (
                    f"thread {idx} read another thread's stats: "
                    f"{stats.output_shape}"
                )

        _run_threads(THREADS, work)

    def test_thread_tallies_sum_to_global_total(self):
        """The process-wide popcount total loses no bytes under contention."""
        signs = np.random.default_rng(1).random((8, 256)) > 0.5
        packed, length = pack_signs(signs)
        expected = packed_dot(packed, packed, length=length)

        # One serial call, measured from the same total, gives the
        # per-call byte cost.
        before = total_bytes_popcounted()
        packed_dot(packed, packed, length=length)
        per_call = total_bytes_popcounted() - before
        assert per_call > 0

        total_before = total_bytes_popcounted()
        barrier = threading.Barrier(THREADS)

        def work(idx):
            barrier.wait()
            for _ in range(ITERS):
                out = packed_dot(packed, packed, length=length)
                assert out.tobytes() == expected.tobytes()

        _run_threads(THREADS, work)
        assert total_bytes_popcounted() - total_before == THREADS * ITERS * per_call


# ----------------------------------------------------------------------
# Satellite (b): geometry cache under a hammering thread pool
# ----------------------------------------------------------------------
class TestGeometryCacheHammer:
    def test_concurrent_misses_keep_stats_and_size_consistent(self):
        """hits + misses == lookups, size ≤ maxsize, no KeyError evictions."""
        clear_geometry_cache()
        maxsize = geometry_cache_info()["maxsize"]
        n_keys = maxsize + 40  # force the eviction loop under contention
        barrier = threading.Barrier(THREADS)

        def work(idx):
            barrier.wait()
            for i in range(ITERS):
                h = 3 + (i * THREADS + idx) % n_keys
                geo = conv_geometry(1, h, 3, 3, 1, 1)
                assert geo.out_height == h  # stride 1, padding 1, kernel 3

        _run_threads(THREADS, work)
        info = geometry_cache_info()
        assert info["hits"] + info["misses"] == THREADS * ITERS
        assert info["size"] <= info["maxsize"]
        # Every eviction was caused by an insert, and every insert by a
        # miss (racing duplicate builds insert nothing).
        assert info["evictions"] <= info["misses"]
        clear_geometry_cache()


# ----------------------------------------------------------------------
# Satellite (c): thread-local no_grad
# ----------------------------------------------------------------------
class TestNoGradThreadSafety:
    def test_scope_does_not_leak_to_other_threads(self):
        entered = threading.Event()
        checked = threading.Event()
        observed = []

        def holder():
            with no_grad():
                entered.set()
                checked.wait(timeout=5)
                observed.append(is_grad_enabled())

        t = threading.Thread(target=holder)
        t.start()
        assert entered.wait(timeout=5)
        # The other thread sits inside no_grad; this thread is unaffected.
        assert is_grad_enabled()
        checked.set()
        t.join()
        assert observed == [False]

    def test_overlapping_nested_scopes_on_two_threads(self):
        """Interleaved nested scopes restore each thread independently."""
        barrier = threading.Barrier(2)

        def work(idx):
            for _ in range(ITERS):
                assert is_grad_enabled()
                with no_grad():
                    barrier.wait()
                    assert not is_grad_enabled()
                    with no_grad():
                        assert not is_grad_enabled()
                    assert not is_grad_enabled()
                    barrier.wait()
                assert is_grad_enabled()

        _run_threads(2, work)

    def test_exception_inside_scope_restores_flag(self):
        with pytest.raises(RuntimeError, match="boom"):
            with no_grad():
                assert not is_grad_enabled()
                raise RuntimeError("boom")
        assert is_grad_enabled()

    def test_tensors_made_under_no_grad_record_no_tape(self):
        x = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert not y.requires_grad
        y2 = x * 2.0
        assert y2.requires_grad


# ----------------------------------------------------------------------
# Tentpole (4): metrics and op counters take concurrent increments
# ----------------------------------------------------------------------
class TestMetricsConcurrency:
    def test_counter_add_is_exact_under_contention(self):
        counter = Counter("t")
        _run_threads(THREADS, lambda idx: [counter.add(1) for _ in range(2500)])
        assert counter.value == THREADS * 2500

    def test_histogram_observe_is_exact_under_contention(self):
        hist = Histogram("t")
        _run_threads(
            THREADS, lambda idx: [hist.observe(idx + 0.5) for _ in range(500)]
        )
        assert hist.count == THREADS * 500
        assert sum(hist.bucket_counts) == hist.count
        assert len(hist.state()[3]) == hist.count  # sorted samples intact

    def test_gauge_set_max_keeps_high_water(self):
        gauge = Gauge("t")
        _run_threads(
            THREADS,
            lambda idx: [gauge.set_max(float(i % (idx + 2))) for i in range(2000)],
        )
        assert gauge.value == float(THREADS)  # max of idx+1 over idx<THREADS

    def test_registry_concurrent_first_use_yields_one_object(self):
        registry = MetricsRegistry()
        barrier = threading.Barrier(THREADS)
        seen = []

        def work(idx):
            barrier.wait()
            seen.append(id(registry.counter("first.use")))

        _run_threads(THREADS, work)
        assert len(set(seen)) == 1


# ----------------------------------------------------------------------
# Satellite (d): real trunks and full sessions, bit-identical to serial
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestSharedEndpointConcurrency:
    BATCHES = 8
    BATCH = 4

    def _features(self, trained_system, tiny_mnist):
        _, test = tiny_mnist
        images = test.images[: self.BATCHES * self.BATCH].astype(np.float32)
        model = trained_system.model
        model.eval()
        with no_grad():
            return model.stem(Tensor(images)).data.astype(np.float32)

    def test_concurrent_trunk_batches_bit_identical_to_serial(
        self, trained_system, tiny_mnist
    ):
        """4 threads through one endpoint == serial, with exact counts."""
        features = self._features(trained_system, tiny_mnist)
        batches = [
            features[i * self.BATCH : (i + 1) * self.BATCH]
            for i in range(self.BATCHES)
        ]

        serial = EdgeEndpoint(trained_system.model.main_trunk)
        expected = [serial.infer(b).tobytes() for b in batches]

        shared = EdgeEndpoint(trained_system.model.main_trunk)
        barrier = threading.Barrier(THREADS)
        results: dict[int, bytes] = {}
        lock = threading.Lock()

        def work(idx):
            barrier.wait()
            for i in range(idx, self.BATCHES, THREADS):
                out = shared.infer(batches[i]).tobytes()
                with lock:
                    results[i] = out

        _run_threads(THREADS, work)
        assert [results[i] for i in range(self.BATCHES)] == expected
        assert shared.requests_served == self.BATCHES * self.BATCH

    def test_module_path_concurrency_bit_identical(
        self, trained_system, tiny_mnist
    ):
        """compile_plan=False exercises the trunk engine's interpreter."""
        features = self._features(trained_system, tiny_mnist)
        batches = [
            features[i * self.BATCH : (i + 1) * self.BATCH]
            for i in range(self.BATCHES)
        ]
        serial = EdgeEndpoint(trained_system.model.main_trunk, compile_plan=False)
        expected = [serial.infer(b).tobytes() for b in batches]

        shared = EdgeEndpoint(trained_system.model.main_trunk, compile_plan=False)
        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            got = list(pool.map(lambda b: shared.infer(b).tobytes(), batches))
        assert got == expected
        assert shared.requests_served == self.BATCHES * self.BATCH

    def test_concurrent_full_sessions_match_solo(self, trained_system, tiny_mnist):
        """N full sessions on N threads answer exactly like a solo run."""
        _, test = tiny_mnist
        images = test.images[:12]
        config = SessionConfig(batch_size=4, threshold=0.05)

        solo = LCRSDeployment(trained_system, four_g(seed=11)).run_session(
            images, config=config
        )
        solo_key = (
            [int(o.prediction) for o in solo.outcomes],
            [bool(o.exited_locally) for o in solo.outcomes],
            np.asarray([o.entropy for o in solo.outcomes]).tobytes(),
        )

        barrier = threading.Barrier(THREADS)

        def work(idx):
            deployment = LCRSDeployment(trained_system, four_g(seed=11))
            barrier.wait()
            session = deployment.run_session(images, config=config)
            key = (
                [int(o.prediction) for o in session.outcomes],
                [bool(o.exited_locally) for o in session.outcomes],
                np.asarray([o.entropy for o in session.outcomes]).tobytes(),
            )
            assert key == solo_key

        _run_threads(THREADS, work)


# ----------------------------------------------------------------------
# Concurrent metric mutation + export (JSONL / Chrome / Prometheus)
# ----------------------------------------------------------------------
class TestConcurrentMutationAndExport:
    """Test-owned threads hammer one registry while exporters read it.

    The contract: totals are exact (no lost updates through the watcher
    path either), every exporter produces valid output mid-hammer, and
    the final exposition reflects exactly the summed per-thread work.
    """

    WORKERS = 4
    ROUNDS = 50

    def _hammer(self, registry, tracer):
        from repro.observability import labeled

        def work(idx):
            shard = idx % 2
            counter = registry.counter(labeled("hammer.requests", shard=shard))
            hist = registry.histogram("hammer.wait_ms", max_samples=64)
            gauge = registry.gauge("hammer.depth")
            for i in range(self.ROUNDS):
                counter.add(1)
                hist.observe(float(i % 7))
                gauge.set_max(float(i))
                with tracer.span("hammer.step", track=f"w{idx}"):
                    pass
            return idx

        with ThreadPoolExecutor(max_workers=self.WORKERS) as pool:
            done = list(pool.map(work, range(self.WORKERS)))
        assert sorted(done) == list(range(self.WORKERS))

    def test_exact_totals_and_valid_exports(self, tmp_path):
        import json as _json

        from repro.observability import (
            MetricsRegistry,
            Tracer,
            chrome_trace,
            labeled,
            prometheus_text,
            spans_to_jsonl,
            write_prometheus,
        )

        registry = MetricsRegistry()
        tracer = Tracer()
        # Attach a watcher before the hammer so the watcher path is
        # exercised under the same contention as the metric itself.
        seen = []
        lock = threading.Lock()

        def tap(value):
            with lock:
                seen.append(value)

        registry.histogram("hammer.wait_ms", max_samples=64).watch(tap)
        self._hammer(registry, tracer)

        total_adds = self.WORKERS * self.ROUNDS
        per_shard = total_adds // 2
        for shard in (0, 1):
            counter = registry.get(labeled("hammer.requests", shard=shard))
            assert counter.value == per_shard
        hist = registry.get("hammer.wait_ms")
        assert hist.count == total_adds
        assert len(seen) == total_adds  # watcher saw every observation
        assert registry.get("hammer.depth").value == float(self.ROUNDS - 1)

        # JSONL: one well-formed object per span line.
        jsonl = spans_to_jsonl(tracer.spans())
        lines = [ln for ln in jsonl.strip().split("\n") if ln]
        assert len(lines) == total_adds
        for ln in lines:
            record = _json.loads(ln)
            assert record["name"] == "hammer.step"

        # Chrome: every emitted event is schema-complete.
        trace = chrome_trace(tracer.spans())
        events = trace["traceEvents"]
        duration_events = [e for e in events if e["ph"] == "X"]
        assert len(duration_events) == total_adds
        for e in duration_events:
            assert {"name", "ph", "ts", "dur", "pid", "tid"} <= set(e)

        # Prometheus: exact numbers in the exposition.
        text = prometheus_text(registry)
        assert f'hammer_requests{{shard="0"}} {per_shard}' in text
        assert f"hammer_wait_ms_count {total_adds}" in text
        out = write_prometheus(registry, tmp_path / "hammer.prom")
        assert out.read_text() == text

    def test_export_during_mutation_is_well_formed(self):
        from repro.observability import MetricsRegistry, Tracer, prometheus_text

        registry = MetricsRegistry()
        tracer = Tracer()
        stop = threading.Event()
        failures = []

        def exporter():
            while not stop.is_set():
                try:
                    text = prometheus_text(registry)
                    for line in text.rstrip("\n").split("\n"):
                        if line and not (
                            line.startswith("# TYPE") or " " in line
                        ):
                            failures.append(line)
                except Exception as exc:  # noqa: BLE001 - reported below
                    failures.append(exc)

        reader = threading.Thread(target=exporter)
        reader.start()
        try:
            self._hammer(registry, tracer)
        finally:
            stop.set()
            reader.join()
        assert not failures
