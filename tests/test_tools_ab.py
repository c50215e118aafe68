"""Tests for ``tools/ab.py``, the alternating A/B comparison: a fake
command prints fixed numbers in two directories, and the summary's
medians, quartiles, win counts and verdicts are checked against them."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab.py"
_SPEC = importlib.util.spec_from_file_location("ab_tool", _PATH)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

#: prints, on each call in a directory, the next object of its values.json
FAKE = """\
import json, pathlib
count = pathlib.Path("count")
n = int(count.read_text()) if count.exists() else 0
count.write_text(str(n + 1))
print("a line that is not the result")
print(json.dumps(json.loads(pathlib.Path("values.json").read_text())[n]))
"""

SPEC = {
    "setup_s": {"better": "lower", "bound": 0.25},
    "latency_p50_ms": {"better": "lower", "bound": 0.25},
    "throughput_qps": {"better": "higher", "bound": 0.25},
    "answered_share": {"better": "higher", "bound": 0.1},
    "exec_match_share": {"better": "higher", "bound": 0.1},
    "peak_rss_mb": {"better": "lower", "bound": 0.1},
}

PAIRS = 10
PARENT = {
    "latency_p50_ms": [10, 12, 11, 13] * 2 + [10, 12],
    "throughput_qps": [100] * PAIRS,
    "setup_s": [1, 2] * 5,
    "answered_share": [0.5] * PAIRS,
    "exec_match_share": [0.4, 0.6] * 5,
    "peak_rss_mb": [100] * PAIRS,
    "attempted": [50] * PAIRS,
    "answered": [5] * PAIRS,
}
CHANGE = {
    "latency_p50_ms": [9, 11, 12, 10] * 2 + [9, 11],
    "throughput_qps": [70, 72, 71, 73] * 2 + [70, 72],
    "setup_s": [1.1, 1.9, 1.5, 1.4] * 2 + [1.1, 1.9],
    "answered_share": [0.7, 0.5] * 4 + [0.7] * 2,
    "exec_match_share": [0.7, 0.8, 0.7, 0.9] * 2 + [0.7, 0.8],
    "peak_rss_mb": [80, 81, 79, 80] * 2 + [80, 81],
    "attempted": [60, 40] * 2 + [60] * 6,
    "answered": [6, 4] * 2 + [6] * 6,
}
DIGESTS = tuple(f"d{i}" for i in range(PAIRS))


def _outputs(columns, digests):
    return [
        {"correct": True, "digest": digest, **{name: values[i] for name, values in columns.items()}}
        for i, digest in enumerate(digests)
    ]


def _run(tmp_path, change_digests=DIGESTS):
    fake = tmp_path / "fake.py"
    fake.write_text(FAKE)
    exports = {}
    for side, columns, digests in (
        ("parent", PARENT, DIGESTS),
        ("change", CHANGE, change_digests),
    ):
        exports[side] = tmp_path / side
        exports[side].mkdir()
        (exports[side] / "values.json").write_text(json.dumps(_outputs(columns, digests)))
    return ab.run_pairs(exports, [[sys.executable, str(fake)]] * PAIRS, timeout=60)


class TestSummary:
    def test_medians_quartiles_wins_and_verdicts(self, tmp_path):
        runs = _run(tmp_path)
        assert [run["parent"]["latency_p50_ms"] for run in runs] == PARENT["latency_p50_ms"]
        summary = ab.summarize(runs, SPEC)
        assert list(summary) == list(PARENT)  # numeric fields only, in output order
        latency = summary["latency_p50_ms"]
        assert latency["parent"] == pytest.approx({"median": 11.5, "q1": 10.25, "q3": 12})
        assert latency["change"] == pytest.approx({"median": 10.5, "q1": 9.25, "q3": 11})
        assert (latency["won"], latency["lost"]) == (8, 2)
        verdicts = {name: row["verdict"] for name, row in summary.items()}
        assert verdicts == {
            "latency_p50_ms": "within",  # -8.7%, 8/10 won: no gain; parent IQR/median 0.15
            "throughput_qps": "worse",  # 100 -> 71.5 is 28.5% lower
            "setup_s": "unresolved",  # parent IQR/median 0.67 > 0.25
            "answered_share": "within",  # median +40% but only 6/10 pairs won: no gain
            "exec_match_share": "better",  # 10/10 won, medians 0.25 apart > parent IQR 0.2
            "peak_rss_mb": "better",  # 10/10 won, 100 -> 80
            "attempted": None,  # not in BENCHMARK.json: no bound, no verdict
            "answered": None,
        }
        wins = {name: (row["won"], row["lost"]) for name, row in summary.items()}
        assert wins["throughput_qps"] == (0, 10)
        assert wins["answered_share"] == (6, 0)  # ties count for neither
        assert wins["peak_rss_mb"] == (10, 0)
        assert wins["attempted"] == (8, 2)  # perfbench's attempted: higher is better
        assert wins["answered"] == (None, None)  # direction unknown: no wins counted
        assert summary["answered"]["better"] is None
        assert ab.first_mismatch(runs) is None
        text = ab.table(summary, PAIRS)
        assert "11.5 (10.25–12)" in text and "unresolved" in text

    def test_first_differing_pair_is_named(self, tmp_path):
        runs = _run(tmp_path, change_digests=("d0", "d1", "x") + DIGESTS[3:])
        assert ab.first_mismatch(runs) == {
            "pair": 3, "field": "digest", "parent": "d2", "change": "x",
        }

    def test_sides_alternate_which_runs_first(self, tmp_path, monkeypatch):
        order = []
        real = ab._last_json

        def spy(argv, cwd, timeout):
            order.append(Path(cwd).name)
            return real(argv, cwd, timeout)

        monkeypatch.setattr(ab, "_last_json", spy)
        _run(tmp_path)
        assert order == ["parent", "change", "change", "parent"] * (PAIRS // 2)

    def test_one_pair_has_no_spread_and_no_gain(self):
        assert ab.quartiles([3.0]) == (3.0, 3.0, 3.0)
        assert ab.verdict([3.0], [3.0], "lower", 0.25) == "within"
        assert ab.verdict([3.0], [2.0], "lower", 0.25) == "within"  # a gain needs ten pairs

    def test_wide_spread_every_run_better_is_within(self):
        # parent IQR/median 1.0 > 0.25; every pair won, but the medians
        # are 1.1 apart, less than the parent's IQR 2, so no gain; every
        # run of the change is below every run of the parent
        assert ab.verdict([1, 3, 1, 3], [0.9, 0.9, 0.9, 0.9], "lower", 0.25) == "within"


def test_flatten_perfbench_result_line():
    line = {
        "correct": True,
        "attempted": 40,
        "failed": 2,
        "metrics": {"setup_s": {"value": 1.5, "unit": "s"}, "peak_rss_mb": {"value": 90.0, "unit": "MB"}},
    }
    assert ab.flatten(line) == {
        "correct": True, "attempted": 40, "failed": 2, "setup_s": 1.5, "peak_rss_mb": 90.0,
        "failed_share": 0.05,
    }


def test_load_spec_reads_bounds_and_directions():
    spec = ab.load_spec(_PATH.parent.parent / "BENCHMARK.json")
    assert spec["throughput_qps"] == {"better": "higher", "bound": 0.25}
    assert spec["core.pipeline.self_ms"] == {"better": "lower", "bound": None}
