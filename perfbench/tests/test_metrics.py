"""Every metric BENCHMARK.json names is emitted, with its unit, and the
speed corrections and self times behind them compute as documented."""

import json
import os
import subprocess
import sys

import pytest

import run
import spans
import speed

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "paper-cli",
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _assert_emitted(result, wanted):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def test_end_to_end_metrics_emitted_with_units():
    _assert_emitted(_run(0), _spec()["end_to_end"])


def test_per_layer_metrics_emitted_with_units():
    _assert_emitted(_run(1), _spec()["per_layer"])


def test_layer_metrics_match_spec():
    names = set(spans.pass_metrics([], 0, spans.Counter(), 1e9)) | {"trace.overhead_ms"}
    assert names == {m["name"] for m in _spec()["per_layer"]}


def test_self_time_subtracts_children():
    # parent 0..100 with children 10..30 and 40..90; grandchild 50..60
    recs = [["a", 0, 100, -1, 0], ["b", 10, 30, 0, 0], ["c", 40, 90, 0, 0],
            ["d", 50, 60, 2, 0]]
    assert spans.self_times(recs) == [30, 20, 40, 10]
    assert spans.self_times(recs, 2) == [40, 10]


def test_speed_correction_uses_probes_around_the_op():
    log = speed.SpeedLog()
    log.starts = [0.0, 1.0, 2.0]
    log.durations = [speed.REFERENCE_S, 2 * speed.REFERENCE_S, 2 * speed.REFERENCE_S]
    # probes at 1.0 and 2.0 read the machine at half speed
    assert log.corrected(1.1, 0.5) == pytest.approx(0.25)
    # probes at 0.0 and 1.0 read it at 1x and 2x
    assert log.corrected(0.2, 0.5) == pytest.approx(0.5 / 1.5)


def test_setup_correction_uses_start_references_around_each_probe():
    ref = speed.REFERENCE_START_S
    got = run.corrected_setup_s([0.2, 0.3], [ref, 3 * ref, ref])
    assert got == pytest.approx([0.1, 0.15])


def test_install_and_uninstall_restore_linsys():
    import linsys
    import linsys.core
    import linsys.kernels
    import linsys.solvers

    before = (linsys.transversal_number, linsys.solvers.ACTIVE,
              linsys.core.LinearSystem.__init__)
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        assert linsys.solvers.ACTIVE is not before[1]
        fano = linsys.projective_plane(2).system
        assert linsys.transversal_number(fano).value == 3
    finally:
        uninstall()
    after = (linsys.transversal_number, linsys.solvers.ACTIVE,
             linsys.core.LinearSystem.__init__)
    assert after == before
    names = {s[0] for s in tracer.spans}
    assert {"solvers.transversal_number", "kernels.tau_search",
            "core.LinearSystem", "geometry.projective_plane"} <= names
    assert tracer.counts["nodes.tau"] > 0
