"""Supervised-pool drills: SIGKILL a pooled, checkpointed campaign and
resume it; SIGKILL a pooled campaign and leave no worker behind.

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
import textwrap
import time

import pytest

import repro
from repro.core.report import findings_projection

pytestmark = pytest.mark.drill

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
TESTS_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def journaled(path="ck/ck.jsonl"):
    """The journal's count of ``test-done`` records."""
    try:
        with open(path) as handle:
            return sum('"kind": "test-done"' in line for line in handle)
    except OSError:
        return 0


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


def _stat(pid):
    """(state, parent pid) of ``pid`` from /proc, or None once it is gone."""
    try:
        with open("/proc/%d/stat" % pid) as handle:
            fields = handle.read().rpartition(")")[2].split()
    except OSError:
        return None
    return fields[0], int(fields[1])


def _children(pid):
    return [int(entry) for entry in os.listdir("/proc") if entry.isdigit()
            and (_stat(int(entry)) or ("", 0))[1] == pid]


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
def test_sigkill_a_pooled_campaign_and_no_worker_outlives_it(
        tmp_path, monkeypatch):
    # One worker is stuck in a profile that never returns when the
    # parent is SIGKILLed; its heartbeat must find the link lost.  Every
    # forked worker is gone within 2 s (a zombie counts as gone).
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        [SRC_DIR, TESTS_DIR, os.environ.get("PYTHONPATH", "")]))
    script = textwrap.dedent("""
        from repro.core.orchestrator import Campaign, CampaignConfig
        from synthetic_app import (SYNTH_REGISTRY, hanging_test,
                                   safe_only_test, two_service_test)
        Campaign("synth", SYNTH_REGISTRY,
                 tests=[hanging_test(), two_service_test(), safe_only_test()],
                 config=CampaignConfig(workers=2, blacklist_threshold=999,
                                       checkpoint_path="ck.jsonl")).run()
    """)
    parent = subprocess.Popen([sys.executable, "-c", script])
    try:
        # The two healthy profiles journaled: the hung one is the only
        # lease out, and the other worker's fetch is held.
        deadline = time.time() + 120
        while journaled("ck.jsonl") < 2:
            assert parent.poll() is None, "the campaign finished"
            assert time.time() < deadline, "journal stalled"
            time.sleep(0.02)
        workers = _children(parent.pid)
        assert len(workers) == 2, workers
    finally:
        parent.send_signal(signal.SIGKILL)
        parent.wait(timeout=60)
    killed = time.monotonic()

    def alive():
        return [pid for pid in workers
                if (_stat(pid) or ("Z",))[0] not in ("Z", "X")]

    while alive() and time.monotonic() - killed < 2.0:
        time.sleep(0.01)
    left = alive()
    for pid in left:
        os.kill(pid, signal.SIGKILL)
    assert not left, "workers outlived their parent: %s" % left
    print("every worker gone %.2fs after the parent's SIGKILL"
          % (time.monotonic() - killed))
