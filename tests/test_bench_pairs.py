"""tools/bench_pairs.py's summary of alternating pairs, on made-up runs, and
the config key count that it and tools/compare_pipeline.py record."""

import pytest

from util import module_at

compare_pipeline = module_at("tools", "compare_pipeline")
bench_pairs = module_at("tools", "bench_pairs")

PARENT = [10.0, 12.0, 11.0, 13.0, 14.0]


def test_medians_quartiles_and_ratios():
    change = [9.0, 10.0, 12.0, 11.0, 8.0]
    s = bench_pairs.summarize(PARENT, change, "lower", 0.25)
    assert s["parent"] == {"median": 12.0, "q1": 11.0, "q3": 13.0,
                           "values": PARENT}
    assert (s["change"]["median"], s["change"]["q1"], s["change"]["q3"]) \
        == (10.0, 9.0, 11.0)
    assert s["ratio"] == 10.0 / 12.0
    assert s["pair_ratios"] == [b / a for a, b in zip(PARENT, change)]
    assert (s["parent_iqr"], s["parent_spread"]) == (2.0, 2.0 / 12.0)
    # pair 2 is the one the change lost
    assert (s["wins"], s["ties"], s["pairs"]) == (4, 0, 5)
    assert s["verdict"] == "within bound"


def test_gain_needs_nine_tenths_of_pairs_and_more_than_the_iqr():
    lower = [a - 3.0 for a in PARENT]
    assert bench_pairs.summarize(PARENT, lower, "lower", 0.25)["verdict"] \
        == "gain"
    # every pair won, but the medians differ by less than the parent's IQR
    close = [a - 1.0 for a in PARENT]
    s = bench_pairs.summarize(PARENT, close, "lower", 0.25)
    assert s["wins"] == 5 and s["verdict"] == "within bound"


def test_higher_is_better_wins_when_the_change_reads_higher():
    higher = [a + 4.0 for a in PARENT]
    s = bench_pairs.summarize(PARENT, higher, "higher", 0.25)
    assert s["wins"] == 5 and s["ratio"] == 16.0 / 12.0
    assert s["verdict"] == "gain"
    assert bench_pairs.summarize(PARENT, higher, "lower", 0.25)["verdict"] \
        == "regression"


def test_order_effect_shows_in_the_ratios_of_each_order():
    # the change reads 10% low when it runs second (even pairs) and 2% high
    # when it runs first (odd pairs)
    parent = [10.0, 20.0, 10.0, 20.0, 10.0, 20.0]
    change = [9.0, 20.4, 9.0, 20.4, 9.0, 20.4]
    s = bench_pairs.summarize(parent, change, "lower", 0.25)
    assert s["parent_first_ratio"] == pytest.approx(0.9)
    assert s["change_first_ratio"] == pytest.approx(1.02)
    assert s["pair_ratios"][0::2] == [s["parent_first_ratio"]] * 3
    # one pair has no change-first half; a zero parent reading has no ratio
    one = bench_pairs.summarize([10.0], [8.0], "lower", 0.25)
    assert (one["parent_first_ratio"], one["change_first_ratio"]) == (0.8, None)
    zero = bench_pairs.summarize([0.0, 4.0, 2.0], [1.0, 3.0, 3.0], "lower", 0.25)
    assert (zero["parent_first_ratio"], zero["change_first_ratio"]) \
        == (1.5, 0.75)


def test_ties_count_for_neither_side():
    s = bench_pairs.summarize(PARENT, list(PARENT), "lower", 0.25)
    assert (s["wins"], s["ties"], s["ratio"]) == (0, 5, 1.0)
    assert s["verdict"] == "within bound"


@pytest.mark.parametrize("parent, change, verdict", [
    # the parent's spread (2/12) is wider than a 0.1 bound
    (PARENT, [a * 1.05 for a in PARENT], "unresolved"),
    # unless every change run beats every parent run, here by a median gap
    # (1.1) within the parent's IQR (4.5), so it is no gain either
    ([10.0, 10.5, 11.0, 15.0, 16.0], [9.9] * 5, "within bound"),
])
def test_spread_wider_than_the_bound_is_unresolved(parent, change, verdict):
    s = bench_pairs.summarize(parent, change, "lower", 0.1)
    assert s["parent_spread"] > 0.1
    assert s["verdict"] == verdict


def test_workload_summary_reads_each_metric_and_the_checks():
    spec = {"end_to_end": [
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    ]}

    def run(rss, ops, failed=0):
        return {"correct": failed == 0, "attempted": 4, "failed": failed,
                "metrics": {"peak_rss_mb": rss, "ops_per_s": ops}}
    runs = {"parent": [run(58.0, 0.2), run(59.0, 0.2, failed=1)],
            "change": [run(45.0, 0.21), run(46.0, 0.19)]}
    out = bench_pairs.summarize_workload(spec, runs, [7, 8])
    assert out["first"] == ["parent", "change"]
    assert out["checks"]["parent"] == {"correct_runs": 1, "runs": 2,
                                       "failed": 1, "attempted": 8}
    assert out["runs"]["change"] == [
        {"correct": True, "failed": 0, "attempted": 4}] * 2
    rss = out["metrics"]["peak_rss_mb"]
    assert (rss["unit"], rss["wins"], rss["verdict"]) == ("MB", 2, "gain")
    assert rss["ratio"] == 45.5 / 58.5
    assert out["metrics"]["ops_per_s"]["wins"] == 1
    # the same runs with the failure moved to the change: every pair is still
    # won, but the change failed more checks, so it is no gain
    runs = {"parent": [run(58.0, 0.2), run(59.0, 0.2)],
            "change": [run(45.0, 0.21), run(46.0, 0.19, failed=1)]}
    out = bench_pairs.summarize_workload(spec, runs, [7, 8])
    rss = out["metrics"]["peak_rss_mb"]
    assert (rss["wins"], rss["verdict"]) == (2, "within bound")


def test_config_keys_counts_key_lines_only():
    text = ("[world]\nseed = 0\nnoise_level = 0.5\n\n"
            "# a comment: seed = 1\n[paths]\nroot = run\n\n"
            "[experiment]\nderm_inputs = none\nheuristics = acc, ma0.8\n")
    assert compare_pipeline.config_keys(text) == 5
    assert compare_pipeline.config_keys("") == 0


def test_each_timed_run_starts_from_a_fresh_copy(tmp_path):
    prepared = tmp_path / "prepared"
    (prepared / "run").mkdir(parents=True)
    (prepared / "run" / "state.bin").write_bytes(b"day 7")
    seen = []

    def fake(root, work, args):
        # what the run finds, then what a rerun in place would find next
        seen.append((work, sorted(p.name for p in work.rglob("*")),
                     (work / "run" / "state.bin").read_bytes()))
        (work / "run" / "state.bin").write_bytes(b"day 8")
        (work / "run" / "report.json").write_text("{}")
        return "", 1.5, 40.0
    work = tmp_path / "parent"
    for _ in range(3):
        got = bench_pairs.time_command(tmp_path, prepared, work,
                                       ["aggregate", "--model", "ctr"], fake)
        assert got == {"wall_s": 1.5, "peak_rss_mb": 40.0}
    assert seen == [(work, ["run", "state.bin"], b"day 7")] * 3
    assert (prepared / "run" / "state.bin").read_bytes() == b"day 7"
    assert not (prepared / "run" / "report.json").exists()


def test_command_summary_uses_the_op_and_rss_bounds():
    spec = {"end_to_end": [
        {"name": "op_p50_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    ]}
    runs = {"parent": [{"wall_s": w, "peak_rss_mb": 50.0} for w in PARENT],
            "change": [{"wall_s": w - 3.0, "peak_rss_mb": 60.0}
                       for w in PARENT]}
    out = bench_pairs.summarize_command(spec, runs)
    assert out["first"] == ["parent", "change"] * 2 + ["parent"]
    wall, rss = out["metrics"]["wall_s"], out["metrics"]["peak_rss_mb"]
    assert (wall["unit"], wall["bound"], wall["verdict"]) == ("s", 0.25, "gain")
    assert (rss["unit"], rss["bound"], rss["verdict"]) == ("MB", 0.1,
                                                           "regression")
