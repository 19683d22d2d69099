"""Docs/CLI cross-reference checks (tools/check_docs.py) as tier-1.

The CI ``docs-check`` job runs the same checker standalone; running it
here too means a renamed flag or an undocumented subcommand fails the
ordinary test suite before the PR ever reaches CI.
"""

from __future__ import annotations

import json
import os
import re
import sys

from repro.core.jobqueue import SPEC_SCHEMA, canonical_spec, spec_digest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "tools"))

import check_docs  # noqa: E402

_README_SURFACE = ("campaign serve serve-token store worker audit why corpus "
                   "evaluate list-apps list-params validate-obs.\n")


def test_cli_surface_is_nonempty():
    flags, commands = check_docs.collect_cli_surface()
    assert "--store" in flags and "--serve-state" in flags
    assert {"campaign", "serve", "serve-token", "store"} <= commands


def test_docs_and_cli_agree():
    problems = check_docs.check(REPO_ROOT)
    assert not problems, "\n".join(problems)


def test_checker_catches_a_planted_unknown_flag(tmp_path):
    (tmp_path / "README.md").write_text(
        "Use `--definitely-not-a-real-flag` for " + _README_SURFACE)
    problems = check_docs.check(str(tmp_path))
    assert any("--definitely-not-a-real-flag" in p for p in problems)


def test_checker_catches_a_planted_unknown_spec_key(tmp_path):
    (tmp_path / "README.md").write_text(_README_SURFACE)
    (tmp_path / "docs").mkdir()
    rows = ["| `%s` | x | x | x |" % key
            for key in list(SPEC_SCHEMA)[1:] + ["definitely_not_a_key"]]
    (tmp_path / "docs" / "SERVICE.md").write_text("\n".join(
        ["| spec key | type | default | CLI analogue |", "|---|---|---|---|"]
        + rows + ["", "`faults` keys: ..."]))
    problems = check_docs.check(str(tmp_path))
    assert any("'definitely_not_a_key' is not in SPEC_SCHEMA" in p
               for p in problems)
    assert any("'app' is undocumented" in p for p in problems)
    # "`faults` keys: ..." names none of the execution fault kinds
    assert any("`faults` keys [] are not the execution fault kinds" in p
               for p in problems)


def test_checker_catches_a_planted_unknown_metric(tmp_path):
    (tmp_path / "README.md").write_text(
        "Export `zc_definitely_not_a_metric_total`, `zc_nothing_here_*`, "
        "`zc_pool_size_bucket`, `zc_runtime_*` and `zc_executions_total` "
        "for " + _README_SURFACE)
    problems = check_docs.check(str(tmp_path))
    metric_problems = [p for p in problems if " zc_" in p]
    assert len(metric_problems) == 2, metric_problems
    assert any("zc_definitely_not_a_metric_total is not in the metric "
               "catalog" in p for p in metric_problems)
    assert any("zc_nothing_here_* matches no catalogued metric" in p
               for p in metric_problems)


def test_checker_catches_a_planted_unknown_call(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "mod.py").write_text(
        "LIMIT: int = 3\n\n\nclass Kernel:\n    def run(self):\n"
        "        pass\n")
    (tmp_path / "README.md").write_text(
        "Call `Kernel.run()`, `mod.LIMIT()`, `Kernel()`, `time.time()`, "
        "`Kernel.vanished()` and `definitely_not_code()` for "
        + _README_SURFACE)
    problems = [p for p in check_docs.check(str(tmp_path)) if "()`" in p]
    assert problems == [
        "README.md:1: `Kernel.vanished()` names no def, class or "
        "module-level binding in the code",
        "README.md:1: `definitely_not_code()` names no def, class or "
        "module-level binding in the code"]


def test_checker_catches_a_planted_untested_flag(tmp_path):
    flags, _ = check_docs.collect_cli_surface()
    untested = "--worker-rlimit-mem"
    (tmp_path / "README.md").write_text(_README_SURFACE)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_flags.py").write_text(
        "FLAGS = %r\n" % sorted(flags - {untested}))
    problems = [p for p in check_docs.check(str(tmp_path))
                if p.startswith("tests/")]
    assert problems == ["tests/: CLI flag %s is named in no test"
                        % untested]


def test_checker_catches_a_planted_unused_import(tmp_path):
    (tmp_path / "README.md").write_text(_README_SURFACE)
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "mod.py").write_text(
        "from __future__ import annotations\n\n"
        "import os\n"
        "import sys  # noqa: F401 - imported for its side effect\n"
        "from typing import List, Optional\n\n"
        "try:\n    import resource\nexcept ImportError:\n"
        "    resource = None\n\n"
        "__all__ = [\"Optional\", \"first\"]\n\n\n"
        "def first(items: \"List[str]\") -> str:\n"
        "    return items[0] if resource else \"\"\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(
        "import pytest\n\nfrom pkg.mod import first\n\n\n"
        "def test_first():\n    assert first([\"a\"]) == \"a\"\n")
    problems = [p for p in check_docs.check(str(tmp_path))
                if "imported but never used" in p]
    assert problems == [
        "src/pkg/mod.py:3: `os` is imported but never used",
        "tests/test_mod.py:1: `pytest` is imported but never used"]


def test_checker_requires_the_docs_index(tmp_path):
    (tmp_path / "README.md").write_text("")
    problems = check_docs.check(str(tmp_path))
    assert any("docs/README.md: missing" in p for p in problems)


def test_service_doc_quotes_the_example_digest():
    """The POST example's documented ``spec_digest`` is the one the
    daemon computes for the documented body."""
    with open(os.path.join(REPO_ROOT, "docs", "SERVICE.md")) as handle:
        text = handle.read()
    # the request whose response block quotes a digest
    body = re.search(r"-d '(\{[^']*\})'\s*```\s*```json[^`]*\"spec_digest\"",
                     text).group(1)
    digest = spec_digest(canonical_spec(json.loads(body)))
    quoted = re.findall(r'"spec_digest": "([0-9a-f]{32})"', text)
    assert quoted and set(quoted) == {digest}
