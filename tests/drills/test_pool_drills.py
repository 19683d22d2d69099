"""Supervised-pool drill: SIGKILL a pooled, checkpointed campaign and
resume it.

The parent of a pooled, journaled hdfs campaign is SIGKILLed once ten
profiles are journaled, and the same command is run again: the resume
must report what an uninterrupted run reports, journal each profile
once and leave nothing beside the journal.  ``--blacklist-threshold
999`` decouples the profiles until pooled findings stop depending on
completion order (ROADMAP item 1 deletes this workaround).

Run the drills with ``python -m pytest tests/drills -m drill``.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.core.report import findings_projection

pytestmark = pytest.mark.drill

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def test_sigkill_a_pooled_checkpointed_campaign_and_resume_it(
        tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("PYTHONPATH", SRC_DIR + os.pathsep
                       + os.environ.get("PYTHONPATH", ""))
    command = [sys.executable, "-m", "repro", "campaign", "hdfs",
               "--workers", "2", "--blacklist-threshold", "999"]
    resume = command + ["--checkpoint", "ck/ck.jsonl",
                        "--json", "resumed.json"]
    subprocess.run(command + ["--json", "uninterrupted.json"],
                   check=True, stdout=subprocess.DEVNULL)

    def journaled():
        try:
            with open("ck/ck.jsonl") as handle:
                return sum('"kind": "test-done"' in line for line in handle)
        except OSError:
            return 0

    os.makedirs("ck")
    child = subprocess.Popen(resume, stdout=subprocess.DEVNULL)
    try:
        deadline = time.time() + 300
        while journaled() < 10:
            assert child.poll() is None, "finished before the kill"
            assert time.time() < deadline, "journal stalled"
            time.sleep(0.02)
    finally:
        child.send_signal(signal.SIGKILL)
        child.wait(timeout=60)
    killed_at = journaled()
    subprocess.run(resume, check=True, stdout=subprocess.DEVNULL)
    total = journaled()
    assert killed_at < total, (killed_at, total)
    with open("uninterrupted.json") as handle:
        expected = json.load(handle)
    with open("resumed.json") as handle:
        resumed = json.load(handle)
    assert findings_projection(resumed) \
        == findings_projection(expected), "resumed findings diverged"
    assert resumed["executions"] == expected["executions"], \
        (resumed["executions"], expected["executions"])
    assert os.listdir("ck") == ["ck.jsonl"], os.listdir("ck")
    # The resume re-ran only what the kill left unjournaled.
    done = []
    with open("ck/ck.jsonl") as handle:
        for line in handle:
            try:
                record = json.loads(line)
            except ValueError:
                continue  # the append the kill tore
            if record["kind"] == "test-done":
                done.append(record["test"])
    assert len(done) == len(set(done)), "resume re-ran journaled profiles"
    print("killed at %d of %d journaled profiles; resume matches"
          % (killed_at, total))
