"""Self-tests of the benchmark's own arithmetic, at toy sizes.

    python3 -m pytest perfbench/test_perfbench.py
"""

from pathlib import Path
import sys

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np
import pytest

from sandpiles import btw, build_lattice, cbtw, experiments, measures
import stats
import tracing
import workloads
from workloads import MassLedger


def test_self_times_of_a_synthetic_span_tree():
    # 0: root [0, 10]; 1: child [1, 4]; 2: child [5, 9] with
    # 3: grandchild [6, 7]; 4: child [3.5, 4.5] overlapping child 1;
    # 5: child [9.5, 12] running past the end of the root.
    start = [0.0, 1.0, 5.0, 6.0, 3.5, 9.5]
    end = [10.0, 4.0, 9.0, 7.0, 4.5, 12.0]
    parent = [-1, 0, 0, 2, 0, 0]
    own = tracing.self_times(start, end, parent)
    # root covered by [1, 4.5] + [5, 9] + [9.5, 10] = 3.5 + 4 + 0.5
    assert own.tolist() == pytest.approx([2.0, 3.0, 3.0, 1.0, 1.0, 2.5])


def test_root_summaries_and_combine_on_recorded_spans():
    tracer = tracing.Tracer()
    outer, inner = tracer._name_id("outer"), tracer._name_id("inner")
    roots = []
    for _ in range(2):
        with tracer.traced("round") as root:
            idx = tracer.open(outer)
            tracer.close(tracer.open(inner))
            tracer.count({"outer.items": 3})
            tracer.close(idx)
        roots.append(root)
    summaries = tracing.root_summaries(tracer, roots)
    for root in roots:
        s = summaries[root]
        assert s["outer.calls"] == s["inner.calls"] == 1
        assert s["outer.items"] == 3
        assert s["outer.self_s"] == pytest.approx(s["outer.s"] - s["inner.s"])
    combined, unstable = tracing.combine({"outer.items": 1}, [summaries[r] for r in roots])
    assert combined["outer.items"] == 4 and unstable == []
    _, unstable = tracing.combine({}, [{"n": 1}, {"n": 2}])
    assert unstable == ["n"]


def test_wrappers_reach_every_namespace_and_are_removed():
    import sandpiles
    original = experiments._add_inplace
    lat = build_lattice([2])
    tracer = tracing.Tracer()
    with tracer.traced("round") as root:
        assert experiments._add_inplace is not original
        assert sandpiles.stabilize_many is btw.stabilize_many
        assert hasattr(btw.stabilize_many, "__wrapped__")
        experiments.run_chain(lat, cbtw.zero_config(lat), cbtw.AdditionParams(0.2, 0.8), 5,
                              np.random.default_rng(0))
        quanta = np.zeros((3, 2), dtype=np.int64)
        experiments.step_ensemble(lat, quanta, np.zeros((3, 2)), np.zeros(3, dtype=np.int64),
                                  np.full(3, 0.9))
        measures.Histogram.from_samples(1, measures.Binning(2), quanta, np.zeros((3, 2)))
    assert experiments._add_inplace is original
    assert not hasattr(btw.stabilize_many, "__wrapped__")
    s = tracing.root_summaries(tracer, [root])[root]
    assert s["experiments.run_chain.calls"] == 1
    assert s["cbtw._add_inplace.calls"] == s["btw.stabilize_from.calls"] == 5
    assert s["btw.stabilize_many.replicas"] == 3
    assert s["measures.Histogram.from_samples.samples"] == 3


@pytest.mark.parametrize("n, expected", [
    (9, None), (19, None), (20, "50"), (99, "50"), (100, "90"), (199, "90"), (200, "95"),
    (999, "95"), (1000, "99"), (9999, "99"), (10000, "99.9"), (100000, "99.99"),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected


def test_latency_summary_uses_nearest_rank():
    samples = [i * 1e-6 for i in range(1, 1001)]
    out = stats.latency_summary(samples, "drop")
    assert out["drop_samples"] == 1000
    assert out["drop_p50_us"] == pytest.approx(500)
    assert out["drop_p99_us"] == pytest.approx(990)
    assert sum(s * 1e6 > out["drop_p99_us"] for s in samples) == 10
    assert "drop_p99_us" not in stats.latency_summary(samples[:999], "drop")


def test_ledger_accepts_a_relaxation_and_rejects_a_corrupted_odometer():
    lat = build_lattice([5, 5])
    before = np.full(lat.n_sites, 7, dtype=np.int64)
    after, od = btw.btw_stabilize(lat, before)
    ledger = MassLedger(lat)
    assert od.sum() > 0 and ledger.holds(before, after, od)
    for site in (0, 12):  # a corner (boundary degree 2) and the centre (0)
        bad = od.copy()
        bad[site] += 1
        assert not ledger.holds(before, after, bad)
    swapped = od.copy()
    swapped[[0, 12]] = swapped[[12, 0]]
    assert not ledger.holds(before, after, swapped)


def test_per_layer_metrics_follow_the_spec_and_derive_ratios():
    spec = [{"name": "btw.stabilize_from.us_per_toppling", "unit": "us", "better": "lower"},
            {"name": "btw.btw_add.calls", "unit": "count", "better": "lower"}]
    quantities = {"btw.stabilize_from.self_s": 2.0, "btw.stabilize_from.topplings": 4}
    assert tracing.per_layer_metrics(quantities, spec) == {
        "btw.stabilize_from.us_per_toppling": {"value": 5e5, "unit": "us"},
        "btw.btw_add.calls": {"value": 0, "unit": "count"}}


def test_clock_scales_each_call_by_the_reference_times_around_it(monkeypatch):
    kinds = ("interpreted", "bulk")
    at_speed = sum(stats.REFERENCE_LOOPS[k][1] for k in kinds)
    refs = iter([1.0, 3.0, 1.0])
    monkeypatch.setattr(workloads, "reference_time", lambda k: next(refs) * at_speed)
    clock = workloads.Clock(kinds)
    assert clock(lambda x: x + 1, 1) == 2
    clock(sum, range(1000))
    # reference times 1 and 3 around the first call, 3 and 1 around the second
    assert clock.scaled == pytest.approx([r / 2 for r in clock.raw])
    assert clock.refs == pytest.approx([at_speed * k for k in (1, 3, 1)])
