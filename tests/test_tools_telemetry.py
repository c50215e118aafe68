"""Tests for ``tools/telemetry_classes.py``: one JSON summary with a
median time per telemetry class and an answer digest that repeats."""

import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "telemetry_classes.py"
_SPEC = importlib.util.spec_from_file_location("telemetry_classes_tool", _PATH)
tool = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tool)

CLASSES = ("group_region", "like_scan", "point_lookup", "range_count", "scan_agg", "ts_window")


def test_summary_has_every_class_and_a_repeatable_digest(capsys):
    assert tool.main(["3000"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["rows"] == 3000
    assert summary["queries"] == len(CLASSES) * tool.PER_CLASS
    for name in CLASSES:
        assert summary[f"{name}_ms"] >= 0
    assert len(summary["digest"]) == 64
    assert tool.telemetry_classes(3000)["digest"] == summary["digest"]


def test_bad_arguments_print_usage(capsys):
    assert tool.main(["many"]) == 2
    assert "usage" in capsys.readouterr().err
