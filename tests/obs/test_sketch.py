"""QuantileSketch / WindowedCounter: accuracy, memory bounds, determinism."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import MetricsRegistry, QuantileSketch, WindowedCounter, sketch
from repro.obs.prom import prom_name, render_prometheus
from repro.sim.monitor import TimeSeries


def rank_error(sorted_exact: np.ndarray, estimate: float, q: float) -> float:
    """Distance (in rank space) between the estimate and the target quantile.

    Duplicate-tolerant: the estimate's rank is the interval
    [count(< est), count(<= est)]; the error is the gap from q to that
    interval (zero if q falls inside it).
    """
    n = sorted_exact.size
    lo = np.searchsorted(sorted_exact, estimate, side="left") / n
    hi = np.searchsorted(sorted_exact, estimate, side="right") / n
    if lo <= q <= hi:
        return 0.0
    return min(abs(q - lo), abs(q - hi))


class TestQuantileSketchExact:
    def test_small_inputs_are_exact(self, monkeypatch):
        monkeypatch.setattr(sketch, "K", 64)
        sk = QuantileSketch()
        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        sk.extend(values)
        assert sk.n == 5
        assert sk.retained == 5
        assert sk.quantile(0.0) == 1.0
        assert sk.quantile(1.0) == 5.0
        assert sk.quantile(0.5) == 3.0
        assert sk.min == 1.0 and sk.max == 5.0
        assert sk.mean == pytest.approx(3.0)
        assert sk.sum == pytest.approx(15.0)

    def test_empty_sketch(self):
        sk = QuantileSketch()
        assert sk.n == 0
        assert math.isnan(sk.quantile(0.5))
        assert math.isnan(sk.min) and math.isnan(sk.max)
        assert sk.as_dict() == {"count": 0, "retained": 0}

    def test_rejects_nan_and_bad_quantiles(self):
        sk = QuantileSketch()
        with pytest.raises(ValueError):
            sk.insert(float("nan"))
        sk.insert(1.0)
        with pytest.raises(ValueError):
            sk.quantile(1.5)


ADVERSARIAL = {
    "uniform": lambda rng, n: rng.random(n),
    "exponential": lambda rng, n: rng.exponential(1000.0, n),
    "lognormal": lambda rng, n: rng.lognormal(3.0, 2.0, n),
    "bimodal": lambda rng, n: np.concatenate(
        [rng.normal(0.0, 1.0, n // 2), rng.normal(1e6, 1.0, n - n // 2)]
    ),
    "sorted_ascending": lambda rng, n: np.arange(n, dtype=float),
    "sorted_descending": lambda rng, n: np.arange(n, 0, -1, dtype=float),
    "heavy_duplicates": lambda rng, n: rng.integers(0, 10, n).astype(float),
    "constant": lambda rng, n: np.full(n, 42.0),
}


class TestQuantileSketchAccuracy:
    @pytest.mark.parametrize("dist", sorted(ADVERSARIAL))
    def test_rank_error_within_one_percent(self, dist):
        rng = np.random.default_rng(20110926)
        data = ADVERSARIAL[dist](rng, 50_000)
        sk = QuantileSketch()
        sk.extend(data)
        exact = np.sort(data)
        for q in (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99):
            err = rank_error(exact, sk.quantile(q), q)
            assert err <= 0.01, f"{dist} q={q}: rank error {err:.4f}"

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.floats(
                min_value=-1e12,
                max_value=1e12,
                allow_nan=False,
                allow_infinity=False,
            ),
            min_size=1,
            max_size=2000,
        ),
        st.sampled_from([0.1, 0.5, 0.9, 0.99]),
    )
    def test_rank_error_property(self, values, q):
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(sketch, "K", 128)
            sk = QuantileSketch()
        sk.extend(values)
        exact = np.sort(np.asarray(values, dtype=float))
        # k=128 gives ~1/128 rank error; 1% target needs n large relative
        # to k — for tiny n the sketch is exact anyway
        assert rank_error(exact, sk.quantile(q), q) <= max(0.01, 1.0 / len(values))

    def test_min_max_always_exact(self):
        rng = np.random.default_rng(3)
        data = rng.normal(0, 1e6, 100_000)
        sk = QuantileSketch()
        sk.extend(data)
        assert sk.min == data.min()
        assert sk.max == data.max()
        assert sk.quantile(0.0) == data.min()
        assert sk.quantile(1.0) == data.max()


class TestQuantileSketchMemory:
    def test_bounded_memory_under_1m_inserts(self):
        """The acceptance bound: retained samples stay O(k log(n/k))."""
        rng = np.random.default_rng(11)
        sk = QuantileSketch()  # k=512
        checkpoints = {}
        for chunk in range(10):
            sk.extend(rng.exponential(100.0, 100_000))
            checkpoints[(chunk + 1) * 100_000] = sk.retained
        assert sk.n == 1_000_000
        # k * levels with every level at most full: 512 * ~12 < 8192 —
        # and crucially the footprint is flat between 100k and 1M inserts
        assert all(r <= 8_192 for r in checkpoints.values()), checkpoints
        assert checkpoints[1_000_000] <= 2 * checkpoints[100_000]
        # accuracy survives at the full scale: the exponential median is
        # 100*ln 2 ~ 69.3; allow sketch + sampling slack
        assert sk.quantile(0.5) == pytest.approx(100.0 * math.log(2), rel=0.05)

    def test_determinism(self):
        """Same insert order -> byte-identical internal state (no RNG)."""
        rng = np.random.default_rng(5)
        data = rng.random(50_000)
        a, b = QuantileSketch(), QuantileSketch()
        a.extend(data)
        b.extend(data)
        assert a._levels == b._levels
        assert a.quantile(0.9) == b.quantile(0.9)


def windowed(monkeypatch, window: float, buckets: int) -> WindowedCounter:
    """A counter over another ring than every run's (``sketch.WINDOW`` /
    ``BUCKETS``), so a test can reason in round bucket widths."""
    monkeypatch.setattr(sketch, "WINDOW", window)
    monkeypatch.setattr(sketch, "BUCKETS", buckets)
    return WindowedCounter()


class TestWindowedCounter:
    def test_sliding_window(self, monkeypatch):
        wc = windowed(monkeypatch, 60.0, 6)  # 10s buckets
        wc.add(5.0)
        wc.add(15.0)
        wc.add(55.0)
        assert wc.total(55.0) == 3.0
        # t=65: the [0,10) bucket has slid out (bucket-quantized window)
        assert wc.total(65.0) == 2.0
        # t=75: the [10,20) bucket goes too
        assert wc.total(75.0) == 1.0
        # t=200: everything expired
        assert wc.total(200.0) == 0.0
        assert wc.lifetime == 3.0

    def test_rate(self, monkeypatch):
        wc = windowed(monkeypatch, 10.0, 10)
        for t in range(10):
            wc.add(float(t), 2.0)
        assert wc.rate(9.0) == pytest.approx(2.0)

    def test_out_of_order_within_window(self, monkeypatch):
        wc = windowed(monkeypatch, 60.0, 6)
        wc.add(50.0)
        wc.add(45.0)  # older but still in window
        assert wc.total(50.0) == 2.0

    def test_stale_add_is_dropped(self, monkeypatch):
        wc = windowed(monkeypatch, 60.0, 6)
        wc.add(500.0)
        wc.add(1.0)  # far older than the ring: must not shadow a live bucket
        assert wc.total(500.0) == 1.0
        assert wc.lifetime == 2.0

    def test_validation(self):
        wc = WindowedCounter()
        with pytest.raises(ValueError):
            wc.add(0.0, -1.0)


class TestRegistryIntegration:
    def test_new_monitor_kinds(self):
        reg = MetricsRegistry()
        sk = reg.quantile_sketch("wait")
        assert reg.quantile_sketch("wait") is sk
        wc = reg.windowed_counter("reqs")
        assert (wc.window, wc.buckets) == (sketch.WINDOW, sketch.BUCKETS)
        assert reg.windowed_counter("reqs") is wc
        with pytest.raises(TypeError):
            reg.counter("wait")
        with pytest.raises(TypeError):
            reg.quantile_sketch("reqs")

    def test_snapshot_includes_streaming_kinds(self):
        reg = MetricsRegistry()
        reg.scope("grid").quantile_sketch("wait").extend([1.0, 2.0, 3.0])
        reg.scope("svc").windowed_counter("reqs").add(5.0, 4.0)
        snap = reg.snapshot(now=10.0)
        assert snap["grid.wait"]["kind"] == "quantile_sketch"
        assert snap["grid.wait"]["count"] == 3
        assert snap["grid.wait"]["p50"] == 2.0
        assert snap["svc.reqs"]["kind"] == "windowed_counter"
        assert snap["svc.reqs"]["lifetime"] == 4.0

    def test_register_adopts_streaming_monitors(self):
        reg = MetricsRegistry()
        sk = QuantileSketch()
        assert reg.register("adopted", sk) is sk
        assert reg.get("adopted") is sk


class TestPrometheusRender:
    def test_name_mangling(self):
        assert prom_name("service.request_latency") == (
            "repro_service_request_latency"
        )
        assert prom_name("a.b-c/d") == "repro_a_b_c_d"

    def test_render_all_kinds(self):
        reg = MetricsRegistry()
        reg.counter("events").add("mm.placed", 3)
        reg.quantile_sketch("wait").extend([1.0, 2.0, 3.0, 4.0])
        reg.windowed_counter("reqs").add(5.0, 2.0)
        reg.register("depth", TimeSeries("depth")).record(1.0, 7.0)
        reg.timeweighted("pop").update(0.0, 10.0)
        text = render_prometheus(reg, now=5.0)
        assert text.endswith("\n")
        assert '# TYPE repro_events_total counter' in text
        assert 'repro_events_total{key="mm.placed"} 3.0' in text
        assert "# TYPE repro_wait summary" in text
        assert 'repro_wait{quantile="0.5"}' in text
        assert "repro_wait_count 4.0" in text
        assert "repro_wait_sum 10.0" in text
        assert "repro_reqs_rate" in text and "repro_reqs_total 2.0" in text
        assert "repro_depth_count 1.0" in text
        assert "repro_pop 10.0" in text

    def test_parseable_sample_lines(self):
        reg = MetricsRegistry()
        reg.quantile_sketch("wait").extend(range(100))
        for line in render_prometheus(reg, now=5.0).strip().splitlines():
            if line.startswith("#"):
                continue
            name_and_labels, value = line.rsplit(" ", 1)
            float(value)  # every sample value must parse
            assert name_and_labels.startswith("repro_")
