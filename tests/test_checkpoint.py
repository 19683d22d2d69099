"""Checkpoint/resume: journal round-trips and campaign equivalence."""

from __future__ import annotations

import json
import os

import pytest

from repro.core.checkpoint import (CampaignCheckpoint, CheckpointError,
                                   result_from_dict, result_to_dict)
from repro.core.orchestrator import Campaign, CampaignConfig
from repro.core.pooling import PoolStats
from repro.core.registry import UnitTest
from repro.core.report import app_report_to_dict
from repro.core.runner import CONFIRMED_UNSAFE, TestRunner
from repro.core.testgen import HeteroAssignment, ParamAssignment, TestInstance
from synthetic_app import SYNTH_REGISTRY, two_service_test


def counting_tests(counters, count=5):
    """Synthetic corpus whose bodies count their own executions, so a
    resumed campaign can prove it did not re-run journaled tests."""
    tests = []
    for index in range(count):
        name = "TestCk.testExchange%02d" % index
        base = two_service_test(name=name)

        def body(ctx, _name=name, _fn=base.fn):
            counters[_name] = counters.get(_name, 0) + 1
            _fn(ctx)

        tests.append(UnitTest(app="synth", name=name, fn=body))
    return tests


def campaign(tests, **config_kwargs):
    return Campaign("synth", SYNTH_REGISTRY, tests=tests,
                    config=CampaignConfig(**config_kwargs))


def evaluated_result():
    assignment = HeteroAssignment((ParamAssignment(
        param="synth.mode", group="Service", group_values=(True, False),
        other_value=False, pinned=(("synth.safe-a", 1),)),))
    instance = TestInstance(test=two_service_test(), group="Service",
                            strategy="round-robin", assignment=assignment)
    return TestRunner().evaluate(instance)


class TestResultRoundTrip:
    def test_round_trip_preserves_everything(self):
        result = evaluated_result()
        assert result.verdict == CONFIRMED_UNSAFE
        record = json.loads(json.dumps(result_to_dict(result)))
        tests = {result.instance.test.full_name: result.instance.test}
        restored = result_from_dict(record, tests)
        assert restored.verdict == result.verdict
        assert restored.hetero_error == result.hetero_error
        assert restored.executions == result.executions
        assert restored.instance.group == result.instance.group
        assert restored.instance.strategy == result.instance.strategy
        assert restored.instance.assignment == result.instance.assignment
        assert restored.instance.test is result.instance.test
        assert restored.tally is not None
        assert restored.tally.p_value() == result.tally.p_value()

    def test_unknown_test_is_refused(self):
        record = result_to_dict(evaluated_result())
        with pytest.raises(CheckpointError):
            result_from_dict(record, {})


class TestJournal:
    def test_persists_across_instances(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        result = evaluated_result()
        first = CampaignCheckpoint(path)
        first.load()
        first.record_instance(result)
        first.record_test_done(result.instance.test.full_name, [result],
                               PoolStats(), executions=9,
                               fault_counts={"drop": 2}, retries=1)
        second = CampaignCheckpoint(path)
        assert second.load() == 1
        name = result.instance.test.full_name
        assert second.has_test(name)
        tests = {name: result.instance.test}
        results, stats, executions, faults, retries, error, error_kind = \
            second.restore_test(name, tests)
        assert len(results) == 1 and results[0].verdict == result.verdict
        assert executions == 9 and faults == {"drop": 2} and retries == 1
        assert error == "" and error_kind == ""

    def test_torn_tail_line_is_discarded(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        checkpoint = CampaignCheckpoint(path)
        result = evaluated_result()
        checkpoint.record_test_done("synth::a", [result], PoolStats(), 1)
        with open(path, "a") as handle:
            handle.write('{"kind": "test-done", "test": "synth::b", "tru')
        fresh = CampaignCheckpoint(path)
        assert fresh.load() == 1
        assert fresh.has_test("synth::a") and not fresh.has_test("synth::b")

    def test_torn_tail_with_binary_garbage_is_discarded(self, tmp_path):
        """A crash mid-append can leave more than a truncated JSON line:
        preallocated blocks and torn sector writes surface as raw garbage
        bytes after the partial record.  Load must salvage every complete
        record and stop at the tear instead of blowing up."""
        path = str(tmp_path / "ck.jsonl")
        checkpoint = CampaignCheckpoint(path)
        result = evaluated_result()
        checkpoint.record_test_done("synth::a", [result], PoolStats(), 1)
        checkpoint.record_test_done("synth::b", [result], PoolStats(), 2)
        with open(path, "ab") as handle:
            handle.write(b'{"kind": "test-done", "test": "synth::c", "tru')
            handle.write(b"\x00\xff\xfe\x00garbage\xffgarbage")
        fresh = CampaignCheckpoint(path)
        assert fresh.load() == 2
        assert fresh.has_test("synth::a") and fresh.has_test("synth::b")
        assert not fresh.has_test("synth::c")

    def test_partial_instances_do_not_count_as_done(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        checkpoint = CampaignCheckpoint(path)
        checkpoint.record_instance(evaluated_result())
        fresh = CampaignCheckpoint(path)
        assert fresh.load() == 0
        assert "synth::TestSynth.testExchange" in fresh.partial_tests

    def test_header_mismatch_is_refused(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        checkpoint = CampaignCheckpoint(path)
        checkpoint.load()
        checkpoint.check_header("synth", {"alpha": 1e-4})
        resumed = CampaignCheckpoint(path)
        resumed.load()
        resumed.check_header("synth", {"alpha": 1e-4})  # same: fine
        with pytest.raises(CheckpointError):
            resumed.check_header("synth", {"alpha": 0.05})

    def test_resume_after_a_torn_tail_keeps_its_progress(self, tmp_path):
        """A resumed run appends after a crashed run's torn record: the
        append must start on a fresh line, and load must skip the tear
        instead of stopping there — or a second crash loses the resumed
        run's work."""
        path = str(tmp_path / "ck.jsonl")
        result = evaluated_result()
        first = CampaignCheckpoint(path)
        first.record_test_done("synth::t1", [result], PoolStats(), 1)
        with open(path, "a") as handle:
            handle.write('{"kind": "test-do')  # SIGKILL mid-append
        resumed = CampaignCheckpoint(path)
        assert resumed.load() == 1
        resumed.record_test_done("synth::t2", [result], PoolStats(), 2)
        with open(path, "ab") as handle:
            handle.write(b'{"kind": "test-done", "te\xff')  # second crash
        again = CampaignCheckpoint(path)
        assert again.load() == 2
        again.record_test_done("synth::t3", [result], PoolStats(), 3)
        final = CampaignCheckpoint(path)
        assert final.load() == 3
        assert final.finished_tests == ["synth::t1", "synth::t2", "synth::t3"]

    def test_concurrent_large_appends_never_interleave(self, tmp_path):
        """Four processes appending records larger than a write buffer
        to one journal (application lanes share it): every record must
        come back whole."""
        path = str(tmp_path / "ck.jsonl")
        result = evaluated_result()
        padding = "x" * 20000

        def append_many(prefix):
            checkpoint = CampaignCheckpoint(path)
            for index in range(40):
                checkpoint.record_test_done(
                    "synth::%s%02d" % (prefix, index), [result], PoolStats(),
                    index, error=padding)

        children = []
        for prefix in "abcd":
            pid = os.fork()
            if pid == 0:  # pragma: no cover - child
                code = 1
                try:
                    append_many(prefix)
                    code = 0
                finally:
                    os._exit(code)
            children.append(pid)
        for pid in children:
            assert os.waitpid(pid, 0)[1] == 0
        with open(path) as handle:
            # a writer that sees another's record mid-write starts on a
            # fresh line; the blank line that leaves behind is harmless
            lines = [line for line in handle.read().splitlines() if line]
        assert len(lines) == 160
        assert all(json.loads(line)["error"] == padding for line in lines)
        fresh = CampaignCheckpoint(path)
        assert fresh.load() == 160


class TestCampaignResume:
    def run_interrupted_then_resume(self, tmp_path, keep_done):
        """Full run -> cut the journal after ``keep_done`` tests -> resume."""
        path = str(tmp_path / "campaign.jsonl")
        baseline_counters = {}
        full = campaign(counting_tests(baseline_counters),
                        checkpoint_path=path).run()

        kept, done = [], 0
        for line in open(path):
            record = json.loads(line)
            if record["kind"] == "test-done":
                done += 1
                if done > keep_done:
                    continue
            kept.append(line)
        assert done == 5
        with open(path, "w") as handle:
            handle.writelines(kept)

        resume_counters = {}
        resumed = campaign(counting_tests(resume_counters),
                           checkpoint_path=path).run()
        return full, resumed, resume_counters

    def test_resume_reproduces_the_uninterrupted_report(self, tmp_path):
        full, resumed, _ = self.run_interrupted_then_resume(tmp_path, 2)
        assert app_report_to_dict(resumed) == app_report_to_dict(full)

    def test_resume_skips_journaled_tests(self, tmp_path):
        _, _, counters = self.run_interrupted_then_resume(tmp_path, 3)
        # every test executes once in the pre-run; only non-journaled
        # tests execute beyond that on resume.
        skipped = [n for n, c in sorted(counters.items()) if c == 1]
        assert len(skipped) == 3

    def test_resume_after_torn_append_is_byte_identical(self, tmp_path):
        """Crash *during* an append: the journal ends in half a test-done
        record followed by garbage bytes.  Resume must salvage the complete
        records, redo the torn test, and report byte-identically."""
        path = str(tmp_path / "campaign.jsonl")
        full = campaign(counting_tests({}), checkpoint_path=path).run()

        raw = open(path, "rb").read()
        lines = raw.splitlines(keepends=True)
        done_seen = 0
        kept = b""
        torn = None
        for line in lines:
            if b'"kind": "test-done"' in line:
                done_seen += 1
                if done_seen == 3:
                    torn = line
                    break
            kept += line
        assert torn is not None
        with open(path, "wb") as handle:
            handle.write(kept)
            handle.write(torn[: len(torn) // 2])  # the append that tore
            handle.write(b"\x00\xff\xfejournal sector garbage\xff")

        resumed = campaign(counting_tests({}), checkpoint_path=path).run()
        assert app_report_to_dict(resumed) == app_report_to_dict(full)

    def test_checkpointing_does_not_change_results(self, tmp_path):
        plain = campaign(counting_tests({})).run()
        journaled = campaign(counting_tests({}),
                             checkpoint_path=str(tmp_path / "ck.jsonl")).run()
        assert app_report_to_dict(journaled) == app_report_to_dict(plain)

    def test_config_change_between_runs_is_refused(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        campaign(counting_tests({}), checkpoint_path=path).run()
        with pytest.raises(CheckpointError):
            campaign(counting_tests({}), checkpoint_path=path,
                     max_trials=13).run()

    def test_fully_journaled_campaign_resumes_without_running(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        first = campaign(counting_tests({}), checkpoint_path=path).run()
        counters = {}
        second = campaign(counting_tests(counters),
                          checkpoint_path=path).run()
        assert app_report_to_dict(second) == app_report_to_dict(first)
        assert all(count == 1 for count in counters.values())  # pre-run only


class TestJournalDurability:
    def test_directory_synced_when_journal_is_created(self, tmp_path,
                                                      monkeypatch):
        """A crash right after the first append must not lose the journal
        *name*: the containing directory is fsynced when the JSONL file
        comes into existence — and only then, later appends ride on the
        file's own fsync."""
        import repro.core.checkpoint as ck
        synced = []
        monkeypatch.setattr(ck, "fsync_directory",
                            lambda path: synced.append(path))
        path = str(tmp_path / "ck.jsonl")
        checkpoint = CampaignCheckpoint(path)
        result = evaluated_result()
        checkpoint.record_test_done("synth::a", [result], PoolStats(), 1)
        assert synced == [path]
        checkpoint.record_test_done("synth::b", [result], PoolStats(), 1)
        assert synced == [path]  # directory entry already durable

    def test_recreated_journal_syncs_again(self, tmp_path, monkeypatch):
        import os

        import repro.core.checkpoint as ck
        synced = []
        monkeypatch.setattr(ck, "fsync_directory",
                            lambda path: synced.append(path))
        path = str(tmp_path / "ck.jsonl")
        result = evaluated_result()
        checkpoint = CampaignCheckpoint(path)
        checkpoint.record_test_done("synth::a", [result], PoolStats(), 1)
        os.unlink(path)  # rotation/cleanup between campaigns
        checkpoint.record_test_done("synth::b", [result], PoolStats(), 1)
        assert synced == [path, path]

    def test_fsync_directory_is_harmless_on_real_paths(self, tmp_path):
        from repro.core.checkpoint import fsync_directory
        target = tmp_path / "ck.jsonl"
        target.write_text("")
        fsync_directory(str(target))  # must simply not raise
