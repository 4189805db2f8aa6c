"""Tests of the benchmark's own logic: inputs, output checks, span arithmetic."""

import contextlib
import io
import json

import pytest

import run
import spans
import workloads


def test_walk_stream_depends_only_on_the_seed():
    stream = workloads.walk_stream(7)
    assert stream == workloads.walk_stream(7)
    assert stream != workloads.walk_stream(8)
    frontier = dict.fromkeys(workloads.WALK_NAMES, -1)
    for name, n in stream:
        assert n <= frontier[name] + workloads.WALK_MAX_STEP
        frontier[name] = max(frontier[name], n)
    assert set(frontier.values()) == {workloads.WALK_END - 1}


def test_corrupted_stdout_is_a_failure():
    argv = workloads.GATE[-1]
    proc = run.spawn(["-m", "qser", *argv])
    assert run.output_ok(argv, proc.code, proc.stdout)
    corrupted = proc.stdout[:-2] + bytes([proc.stdout[-2] ^ 1]) + proc.stdout[-1:]
    assert not run.output_ok(argv, proc.code, corrupted)
    assert not run.output_ok(argv, proc.code + 1, proc.stdout)


def test_failed_operation_is_counted_and_not_timed():
    passes = [
        run.Pass(1.0, [True, False], [0.1, 9.0], 10.0),
        run.Pass(1.0, [True, True], [0.3, 0.2], 10.0),
    ]
    assert run.tally(passes) == (4, 1)
    assert run.latency_per_op(passes) == [pytest.approx(0.2), 0.2]


def test_self_time_subtracts_the_union_of_children():
    tree = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 1.0, 4.0, 0, None],
        ["b", 3.0, 6.0, 0, None],  # overlaps a: together they cover 1..6
        ["a.child", 2.0, 3.0, 1, None],
        ["c", 9.0, 12.0, 0, None],  # only 9..10 lies inside root
    ]
    assert spans.self_times(tree) == [4.0, 2.0, 3.0, 1.0, 3.0]


def test_catalog_ratios_from_build_spans():
    tree = [
        ["catalog.build", 0.0, 1.0, -1, ["R", 100]],
        ["series.mul.mid", 0.1, 0.9, 0, 10],
        ["catalog.build", 1.0, 1.1, -1, ["R", 50]],  # no children: a cache hit
        ["catalog.build", 2.0, 3.0, -1, ["R", 200]],
        ["series.truediv", 2.1, 2.9, 3, None],
        ["catalog.build", 3.0, 4.0, -1, ["G", 100]],
        ["products.expand_product", 3.1, 3.9, 5, None],
    ]
    metrics = spans.layer_metrics([tree])
    assert metrics["catalog.build.calls"] == 4
    assert metrics["catalog.build.computed"] == 3
    assert metrics["catalog.hit_ratio"] == 0.25
    assert metrics["catalog.useful_ratio"] == (200 + 100) / (100 + 200 + 100)
    assert metrics["series.mul.max_bits"] == 10


@pytest.mark.parametrize(
    "count, percentile, rank",
    [(7, 100.0, 7), (19, 100.0, 19), (20, 50.0, 10), (36, 100 * 26 / 36, 26), (1000, 99.0, 990)],
)
def test_tail_names_the_highest_percentile_with_ten_samples_beyond(count, percentile, rank):
    samples = [float(i) for i in range(count, 0, -1)]  # rank r holds value r
    got_percentile, value = run.tail(samples)
    assert got_percentile == pytest.approx(percentile)
    assert value == rank
    assert count - rank >= 10 or rank == count


def test_tracing_keeps_stdout_and_is_undone():
    qser = pytest.importorskip("qser")
    from qser import catalog, cli

    argv = ["expand", "R5inv", "--order", "40", "--format", "csv"]

    def stdout_of_main():
        catalog.clear_cache()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0
        return out.getvalue()

    plain = stdout_of_main()
    originals = (qser.Series.__mul__, catalog.build, cli.main)
    rec = spans.install(qser)
    traced = stdout_of_main()
    recorded = rec.uninstall()
    assert traced == plain
    assert (qser.Series.__mul__, catalog.build, cli.main) == originals
    names = {span[0] for span in recorded}
    assert {"cli.main", "catalog.build", "series.pow", "series.inverse"} <= names


def test_benchmark_json_lists_what_the_runs_report():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    reported = {**spans.METRIC_UNITS, "trace.overhead": "ratio", **dict.fromkeys(run.expected()["sweep"], "s")}
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == reported
    assert {w["name"] for w in doc["workloads"]} <= set(workloads.WORKLOADS)
