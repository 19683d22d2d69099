"""Smoke tests: the runnable examples must keep working end to end.

Each example's ``main()`` is imported and executed (they assert their own
expected outcomes internally).  The two slowest examples — the full HDFS
campaign and the whole-evaluation driver — are exercised through the
session-scoped campaign fixtures elsewhere, so they are only
import-checked here.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def load_example(name: str):
    spec = importlib.util.spec_from_file_location(
        "example_%s" % name, EXAMPLES_DIR / ("%s.py" % name))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestRunnableExamples:
    def test_quickstart(self, capsys):
        load_example("quickstart").main()
        out = capsys.readouterr().out
        assert "toy.codec" in out
        assert "OK" in out

    def test_remediation(self, capsys):
        load_example("remediation").main()
        out = capsys.readouterr().out
        assert out.count("BALANCER TIMEOUT") == 3
        assert out.count("OK (") == 3

    def test_dependency_inference(self, capsys):
        load_example("dependency_inference").main()
        out = capsys.readouterr().out
        assert "dfs.namenode.https-address" in out
        assert "OK" in out

    def test_rolling_reconfig_workaround(self, capsys):
        load_example("rolling_reconfig_workaround").main()
        out = capsys.readouterr().out
        assert "receiver (NameNode) first: 0" in out

    def test_balancer_case_study(self, capsys):
        load_example("balancer_case_study").main()
        out = capsys.readouterr().out
        assert "collapse factor" in out
        assert "BALANCER TIMEOUT" in out

    @pytest.mark.chaos
    def test_chaos_campaign(self, capsys):
        load_example("chaos_campaign").main()
        out = capsys.readouterr().out
        assert "byte-identical chaos report" in out
        assert "reproduces the uninterrupted report" in out

    def test_ci_regression_gate(self, capsys):
        load_example("ci_regression_gate").main()
        out = capsys.readouterr().out
        assert "baseline match" in out
        assert "FAIL the build" in out


class TestHeavyExamplesImportable:
    @pytest.mark.parametrize("name", ["find_hdfs_unsafe_params",
                                      "full_evaluation"])
    def test_module_loads_and_exposes_main(self, name):
        module = load_example(name)
        assert callable(module.main)
