"""tools/bench_pairs.py's summary of alternating pairs, on made-up runs, the
config key count that it and tools/compare_pipeline.py record, the
metric drift that tools/compare_pipeline.py prints for a differing report,
and the wire framing its serve comparison speaks."""

import socket
import struct

import numpy as np
import pytest

from derm.store import (RECORD_HEAD, STATUS_BAD_REQUEST, STATUS_MISSING,
                        STATUS_OK, generation_bytes, parse_generation, serve,
                        source_code)

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


def test_largest_drifts_name_the_arm_and_seed():
    parent = ("arm,seed,roc_auc,pr_auc,lift\n"
              "baseline,0,0.600000,0.300000,0.000000\n"
              "ma0.8,0,0.700000,0.400000,0.100000\n"
              "ma0.8,1,0.710000,0.410000,0.110000\n")
    change = ("arm,seed,roc_auc,pr_auc,lift\n"
              "baseline,0,0.600000,0.300000,0.000000\n"
              "ma0.8,0,0.698000,0.400500,0.098000\n"
              "ma0.8,1,0.713000,0.410000,0.113000\n")
    path = "run/reports/experiment-heuristics-ctr.csv"
    rows = [compare_pipeline.metric_rows(path, text)
            for text in (parent, change)]
    assert rows[0]["arm ma0.8 seed 1"] == {"roc_auc": 0.71, "pr_auc": 0.41,
                                           "lift": 0.11}
    assert compare_pipeline.largest_drifts(*rows) == [
        "largest roc_auc difference 0.003000 at arm ma0.8 seed 1 "
        "(0.710000 -> 0.713000)",
        "largest pr_auc difference 0.000500 at arm ma0.8 seed 0 "
        "(0.400000 -> 0.400500)",
        "largest lift difference 0.003000 at arm ma0.8 seed 1 "
        "(0.110000 -> 0.113000)",
    ]
    # equal tables: each metric's first row, at zero
    assert compare_pipeline.largest_drifts(rows[0], rows[0])[0] == (
        "largest roc_auc difference 0.000000 at arm baseline seed 0 "
        "(0.600000 -> 0.600000)")


def test_largest_drifts_of_a_downstream_report_name_the_split():
    def report(test_auc):
        return ('{"derm_inputs": [], "task": "ctr", '
                '"train": {"pr_auc": 0.5, "roc_auc": 0.7, "samples": 9}, '
                f'"test": {{"pr_auc": 0.4, "roc_auc": {test_auc}, '
                '"samples": 3}}')
    path = "run/reports/downstream-ctr.json"
    rows = [compare_pipeline.metric_rows(path, report(auc))
            for auc in (0.65, 0.64)]
    lines = compare_pipeline.largest_drifts(*rows)
    assert lines[0] == ("largest roc_auc difference 0.010000 at test "
                        "(0.650000 -> 0.640000)")
    assert len(lines) == 2  # a downstream report has no lift
    assert compare_pipeline.metric_rows("run/world/world.json", "{}") is None


def test_lookup_frames_ask_every_id_of_each_kind_and_source_in_order():
    frames = compare_pipeline.lookup_frames(2, 3)
    codes = [source_code(s) for s in ("ctr-upstream", "cvr-upstream")]
    want = [struct.pack("<I", 11) + struct.pack(RECORD_HEAD, kind, i, code)
            for code in codes for kind, n in ((0, 2), (1, 3))
            for i in range(n)]
    assert frames[:-2] == want
    assert frames[-2] == struct.pack("<I", 11) + struct.pack(
        RECORD_HEAD, 0, 2**64 - 1, codes[0])
    assert frames[-1] == b"\x03\x00\x00\x00\x00\x01\x02"


def test_read_answer_reassembles_byte_by_byte_and_stops_at_one_answer():
    ok = struct.pack("<BI", STATUS_OK, 2) + np.array([1.5, -2.0], "<f4").tobytes()
    missing = struct.pack("<BI", STATUS_MISSING, 0)
    stream = bytearray(ok + missing)

    def recv(n):  # at most one byte a call
        chunk = bytes(stream[:min(n, 1)])
        del stream[:len(chunk)]
        return chunk

    assert compare_pipeline.read_answer(recv) == ok
    assert compare_pipeline.read_answer(recv) == missing
    with pytest.raises(EOFError):
        compare_pipeline.read_answer(recv)


def test_framing_agrees_with_derm_serve():
    vectors = {(kind, i, source_code(s)): np.full(4, kind * 10 + i, "<f4")
               for s in ("ctr-upstream", "cvr-upstream")
               for kind in (0, 1) for i in range(3)}
    gen = parse_generation(generation_bytes(9, 4, vectors))
    frames = compare_pipeline.lookup_frames(3, 3)
    with serve(gen) as handle, socket.create_connection(handle.address,
                                                        timeout=10) as sock:
        answers = []
        for f in frames:
            sock.sendall(f)
            answers.append(compare_pipeline.read_answer(sock.recv))
    assert answers[:-2] == [struct.pack("<BI", STATUS_OK, 4) + v.tobytes()
                            for v in vectors.values()]
    assert answers[-2:] == [struct.pack("<BI", STATUS_MISSING, 0),
                            struct.pack("<BI", STATUS_BAD_REQUEST, 0)]
