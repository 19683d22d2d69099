"""Unit tests for the pre-run profiling phase (§4, §6.2 Observation 3)."""

from __future__ import annotations

import dataclasses
import gc
import sys
import threading
import weakref

import pytest

from repro.common.ipc import set_ipc_sharing
from repro.core.confagent import UNIT_TEST
from repro.core.prerun import PreRunSummary, prerun_corpus, prerun_test
from synthetic_app import (broken_baseline_test, client_vs_service_test,
                           no_node_test, safe_only_test, two_service_test,
                           uncertain_conf_test)


class TestProfiles:
    def test_node_groups_recorded(self):
        profile = prerun_test(two_service_test())
        assert profile.groups["Service"] == 2
        assert profile.starts_nodes
        assert profile.usable

    def test_unit_test_counts_as_client_group(self):
        profile = prerun_test(client_vs_service_test())
        assert profile.groups.get(UNIT_TEST) == 1

    def test_usage_recorded_per_group(self):
        profile = prerun_test(two_service_test())
        assert "synth.mode" in profile.params_by_group["Service"]
        assert "synth.level" in profile.params_by_group["Service"]
        assert "synth.never-read" not in profile.params_by_group["Service"]

    def test_no_node_test_filtered(self):
        profile = prerun_test(no_node_test())
        assert not profile.starts_nodes
        assert not profile.usable

    def test_broken_baseline_filtered(self):
        profile = prerun_test(broken_baseline_test())
        assert profile.baseline_error is not None
        assert "broken at baseline" in profile.baseline_error
        assert not profile.usable

    def test_uncertain_params_excluded_from_testable(self):
        profile = prerun_test(uncertain_conf_test())
        assert "synth.safe-c" in profile.uncertain_params
        assert "synth.safe-c" not in profile.testable_params("Service")
        # parameters read only through mapped confs stay testable
        assert "synth.mode" in profile.testable_params("Service")

    def test_profile_is_deterministic(self):
        first = prerun_test(two_service_test())
        second = prerun_test(two_service_test())
        assert first.groups == second.groups
        assert first.params_by_group == second.params_by_group


class TestSummary:
    def test_summary_counts(self):
        profiles = prerun_corpus([
            two_service_test(), no_node_test(), broken_baseline_test(),
            uncertain_conf_test(), safe_only_test(),
        ])
        summary = PreRunSummary.from_profiles(profiles)
        assert summary.total_tests == 5
        assert summary.tests_without_nodes == 1
        assert summary.tests_broken_at_baseline == 1
        assert summary.tests_with_uncertain_confs == 1


def profile_fields(profile):
    return {f.name: getattr(profile, f.name)
            for f in dataclasses.fields(profile)}


class TestPerProcessReuse:
    """``prerun_corpus`` answers a repeat from memory; a memoised profile
    must equal a fresh :func:`prerun_test` under the same switch."""

    @pytest.mark.parametrize("sharing", [True, False])
    def test_repeat_equals_fresh_across_the_catalog(self, corpus, sharing):
        tests = corpus.all_tests()
        previous = set_ipc_sharing(sharing)
        try:
            prerun_corpus(tests)
            repeat = prerun_corpus(tests)
            fresh = [prerun_test(test) for test in tests]
        finally:
            set_ipc_sharing(previous)
        for test, again, new in zip(tests, repeat, fresh):
            assert again.test is test
            assert profile_fields(again) == profile_fields(new), \
                test.full_name

    def test_the_switch_changes_profiles(self, corpus):
        # why the switch is part of the key: without it the parametrized
        # test above would serve one mode's profiles to the other.
        tests = corpus.all_tests()
        previous = set_ipc_sharing(False)
        try:
            unshared = [prerun_test(test) for test in tests]
        finally:
            set_ipc_sharing(previous)
        shared = [prerun_test(test) for test in tests]
        differ = [a.test.full_name for a, b in zip(shared, unshared)
                  if profile_fields(a) != profile_fields(b)]
        assert len(differ) > len(tests) // 2

    def test_returned_profiles_are_independent(self):
        test = two_service_test()
        fresh = profile_fields(prerun_test(test))
        first = prerun_corpus([test])[0]
        first.groups["Service"] = 99
        first.params_by_group["Service"].add("mutated")
        first.uncertain_params.add("mutated")
        first.explicit_sets.add("mutated")
        next(iter(first.read_sites.values()))["mutated"] = 1
        second = prerun_corpus([test])[0]
        assert profile_fields(second) == fresh

    def test_same_name_different_body_gets_its_own_profile(self):
        name = "TestSynth.testShared"
        two, lone, none = prerun_corpus([
            two_service_test(name), client_vs_service_test(name),
            no_node_test(name)])
        assert two.groups == {"Service": 2}
        assert lone.groups.get(UNIT_TEST) == 1
        assert not none.starts_nodes
        assert [profile_fields(p) for p in prerun_corpus(
            [two.test, lone.test, none.test])] == \
            [profile_fields(p) for p in (two, lone, none)]

    def test_threads_prerunning_at_once_get_fresh_profiles(self):
        tests = [two_service_test("TestSynth.testRace%d" % i)
                 for i in range(3)] + [no_node_test("TestSynth.testRace")]
        fresh = [profile_fields(prerun_test(test)) for test in tests]
        results = [None] * 4
        barrier = threading.Barrier(len(results))

        def prerun(index):
            barrier.wait()
            results[index] = [profile_fields(p)
                              for p in prerun_corpus(tests)]

        threads = [threading.Thread(target=prerun, args=(i,))
                   for i in range(len(results))]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [fresh] * len(results)

    def test_memo_does_not_keep_tests_alive(self):
        test = two_service_test("TestSynth.testThrowaway")
        prerun_corpus([test])
        test_ref, fn_ref = weakref.ref(test), weakref.ref(test.fn)
        del test
        gc.collect()
        assert test_ref() is None and fn_ref() is None
