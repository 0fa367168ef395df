"""Tests of the benchmark's own arithmetic, tracing and input generation.

Run with:  python3 -m pytest perfbench/tests
"""

import json
import statistics
from pathlib import Path

import pytest

import probe
import stats
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parents[2]


# -- percentiles ------------------------------------------------------------

def test_percentile_interpolates_between_ranks():
    xs = [4.0, 1.0, 3.0, 2.0]
    assert stats.percentile(xs, 0) == 1.0
    assert stats.percentile(xs, 100) == 4.0
    assert stats.percentile(xs, 50) == 2.5
    assert stats.percentile(xs, 25) == pytest.approx(1.75)
    assert stats.percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile(xs, 101)


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert stats.tail_percentile(list(range(19))) is None
    p, value = stats.tail_percentile(list(range(20)))
    assert p == 50 and value == 9.5
    xs = [float(i) for i in range(137)]
    p, value = stats.tail_percentile(xs)
    assert sum(1 for x in xs if x > value) >= 10
    assert stats.tail_percentile(xs[:-1])[0] <= p


def test_quartiles_match_statistics_quantiles():
    xs = [3.0, 9.0, 1.0, 4.0, 4.0, 7.0, 2.0]
    assert stats.quartiles(xs) == tuple(statistics.quantiles(xs, n=4))
    assert stats.quartiles([5.0]) == (5.0, 5.0, 5.0)


# -- self time of nested frames ----------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_subtracts_nested_frames():
    clock = FakeClock()
    tr = tracing.Tracer(clock)
    tr.job = 7
    tr.enter("job", True)
    clock.advance(1)
    tr.enter("cli", True)
    clock.advance(2)
    for _ in range(3):  # aggregated frames inside a span
        tr.enter("matroid.rank", False)
        clock.advance(0.5)
        tr.exit()
    tr.enter("tutte.subset_sum", True)
    clock.advance(4)
    tr.exit()
    tr.exit()
    clock.advance(1)
    tr.exit()
    calls, incl, self_s = tr.frames["cli"]
    assert (calls, incl, self_s) == (1, 7.5, 2.0)
    assert tr.frames["matroid.rank"] == [3, 1.5, 1.5]
    assert tr.frames["job"] == [1, 9.5, 2.0]
    assert sum(f[2] for f in tr.frames.values()) == 9.5
    names = [s["name"] for s in tr.spans]
    assert names == ["job", "cli", "tutte.subset_sum"]
    assert [s["parent"] for s in tr.spans] == [None, 0, 1]
    assert {s["job"] for s in tr.spans} == {7}
    assert tr.spans[2]["start"] == 4.5 and tr.spans[2]["end"] == 8.5


def test_recursive_frame_counts_inclusive_time_once():
    clock = FakeClock()
    tr = tracing.Tracer(clock)
    tr.enter("hilbert.basis", False)
    clock.advance(1)
    tr.enter("hilbert.basis", False)
    clock.advance(2)
    tr.exit()
    tr.exit()
    assert tr.frames["hilbert.basis"] == [2, 3.0, 3.0]


def test_metrics_are_per_job_and_shares_sum_to_one():
    clock = FakeClock()
    tr = tracing.Tracer(clock)
    for _ in range(2):
        tr.enter("job", True)
        tr.enter("tutte.subset_sum", True)
        clock.advance(3)
        tr.exit()
        tr.count("tutte.subsets", 1 << 10)
        clock.advance(1)
        tr.exit()
    m = tr.metrics([4.0, 4.0], [3.5, 3.7])
    assert m["tutte.subset_sum_s"] == 3.0
    assert m["tutte.subset_sum_calls"] == 1.0
    assert m["tutte.subsets_per_s"] == (2 << 10) / 6.0
    assert sum(v for k, v in m.items() if k.endswith(".share")) == 1.0
    assert m["trace.overhead_s"] == pytest.approx(4.0 - 3.6)
    names = {name for name, _, _ in tracing.per_layer_metrics()}
    assert set(m) == names


def test_installed_tracer_measures_a_cli_job_and_restores_the_program():
    import starconfig
    from starconfig import cli, codes, hilbert, matroid, tutte

    modules = (starconfig, cli, codes, hilbert, matroid, tutte)
    before = [dict(vars(m)) for m in modules]
    classes = (matroid.VectorMatroid, hilbert.GradedIdealEngine,
               cli.TutteCache)
    methods = [dict(vars(c)) for c in classes]
    argv = ["profile", "--json", "--no-cache", "--example", "b3"]
    untraced = workloads.run_cli(argv)
    tr = tracing.Tracer()
    with tracing.installed(tr):
        with tr.frame("job"):
            doc = workloads.run_cli(argv)
    assert workloads.canonical([doc]) == workloads.canonical([untraced])
    assert [dict(vars(m)) for m in modules] == before
    assert [dict(vars(c)) for c in classes] == methods
    m = tr.metrics([tr.frames["job"][1]], [])
    assert m["tutte.subset_sum_calls"] == 1
    assert m["matroid.rank_calls"] > 2 ** 9
    assert m["tutte.dc_nodes"] > 0 and m["matroid.flats_found"] > 0
    assert sum(v for k, v in m.items() if k.endswith(".share")) == \
        pytest.approx(1.0)


# -- the comparison rule ------------------------------------------------------

def _runs(values):
    return dict(enumerate(values))


def test_compare_improved_needs_nine_tenths_of_pairs():
    parent = _runs([10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.0])
    change = _runs([v - 1.0 for v in parent.values()])
    v = stats.compare(parent, change, "lower", 0.1)
    assert v["verdict"] == "improved" and v["win_share"] == 1.0
    change[0] = 11.0
    change[1] = 11.0  # two of ten pairs lost: 80% < 90%
    assert stats.compare(parent, change, "lower", 0.1)["verdict"] == \
        "unchanged"


def test_compare_worse_unchanged_and_unresolved():
    parent = _runs([10.0, 10.1, 9.9, 10.0, 10.0])
    slower = _runs([12.0, 12.1, 11.9, 12.0, 12.0])
    assert stats.compare(parent, slower, "lower", 0.1)["verdict"] == "worse"
    assert stats.compare(parent, slower, "higher", 0.1)["verdict"] == \
        "improved"
    same = _runs([10.0, 10.05, 9.95, 10.0, 10.0])
    assert stats.compare(parent, same, "lower", 0.1)["verdict"] == \
        "unchanged"
    noisy = _runs([5.0, 15.0, 8.0, 12.0, 10.5])
    assert stats.compare(parent, noisy, "lower", 0.1)["verdict"] == \
        "unresolved"


def test_compare_wide_spread_but_every_change_run_better():
    parent = _runs([10.0, 14.0, 10.0, 14.0])
    change = _runs([9.0, 9.5, 9.0, 9.5])
    v = stats.compare(parent, change, "lower", 0.05)
    assert v["verdict"] != "unresolved"


def test_compare_pairs_only_common_seeds():
    v = stats.compare({1: 1.0, 2: 1.0}, {2: 1.0, 3: 1.0}, "lower", 0.1)
    assert v["pairs"] == 1
    with pytest.raises(ValueError):
        stats.compare({1: 1.0}, {2: 1.0}, "lower", 0.1)


# -- host-speed scaling --------------------------------------------------------

def test_scale_divides_by_the_geometric_mean_of_the_bracketing_probes():
    nominal = probe.NOMINAL_S
    assert probe.scale(2.0, nominal, nominal) == pytest.approx(2.0)
    assert probe.scale(3.0, 2 * nominal, 2 * nominal) == pytest.approx(1.5)
    assert probe.scale(1.0, nominal, 4 * nominal) == pytest.approx(0.5)


def test_probe_checks_its_own_result():
    ticks = iter([10.0, 10.25])
    assert probe.probe(clock=lambda: next(ticks)) == pytest.approx(0.25)


# -- inputs -------------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_seed_gives_byte_identical_inputs(tmp_path, workload):
    def files(directory, seed):
        pool = workloads.make_pool(workload, seed, str(directory))
        return [Path(job.path).read_bytes() for job in pool]

    first = files(tmp_path / "a", 5)
    assert first == files(tmp_path / "b", 5)
    assert first != files(tmp_path / "c", 6)
    assert len(first) == workloads.POOL


def test_benchmark_json_lists_the_traced_metrics():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == tracing.per_layer_metrics()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
