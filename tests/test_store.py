"""Durable result store: crash consistency under deterministic disk chaos.

The headline invariants:

1. **Reopen never crashes.**  Whatever a crash or injected disk fault
   left on disk — torn frames, short writes, raw garbage — ``open()``
   salvages every intact record and serves nothing else.
2. **Warm equals cold.**  A campaign run against a populated store
   executes strictly less and reports byte-identical findings.
3. **Corrupt or mismatched entries are never served.**  CRC-failed
   frames, foreign corpus digests, and future format versions are
   refused, not guessed at.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import textwrap
import threading
import time
from dataclasses import asdict

import pytest

import repro
from repro.common.faults import (DiskFaultPlan, FaultyFile, InjectedCrash,
                                 InjectedDiskFault)
from repro.core.distrib import corpus_digest
from repro.core.orchestrator import Campaign, CampaignConfig
from repro.core.report import app_report_to_dict, findings_projection
from repro.core.runner import RunOutcome
from repro.core.store import (MAGIC, STORE_VERSION, ResultStore, StoreError,
                              _encode, _scan_segment, _serve_scan,
                              iter_frames)
from synthetic_app import (SYNTH_REGISTRY, client_vs_service_test,
                           safe_only_test, two_service_test)

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def outcome(ok=True, error_type="", rng_used=False):
    return RunOutcome(ok=ok, error_type=error_type,
                      error_message="boom" if error_type else "",
                      rng_used=rng_used)


def opened(tmp_path, app="synth", digest=7, **kw):
    store = ResultStore(str(tmp_path / "store"), **kw)
    store.open(app, digest)
    return store


def segment_paths(store):
    return store._segment_paths()


def findings(report):
    return json.dumps(findings_projection(app_report_to_dict(report)),
                      sort_keys=True)


def synth_tests():
    return [two_service_test(), client_vs_service_test(), safe_only_test()]


def campaign(tmp_path=None, tests=None, **kw):
    if tmp_path is not None:
        kw.setdefault("store_path", str(tmp_path / "store"))
    return Campaign("synth", SYNTH_REGISTRY,
                    tests=tests if tests is not None else synth_tests(),
                    config=CampaignConfig(**kw))


# ---------------------------------------------------------------------------
# frame layer
# ---------------------------------------------------------------------------
class TestFraming:
    def test_round_trip(self):
        data = _encode({"a": 1}) + _encode({"b": 2})
        assert [r for k, r in iter_frames(data) if k == "record"] == \
            [{"a": 1}, {"b": 2}]

    def test_resync_after_corrupt_span(self):
        good = _encode({"i": 1})
        data = good + b"\x00\xffgarbage\xfe" + _encode({"i": 2})
        events = list(iter_frames(data))
        assert [r for k, r in events if k == "record"] == [{"i": 1},
                                                           {"i": 2}]
        assert any(k == "corrupt" for k, _ in events)

    def test_flipped_payload_byte_fails_crc_but_resyncs(self):
        frames = _encode({"i": 1}) + _encode({"i": 2}) + _encode({"i": 3})
        mutated = bytearray(frames)
        mutated[len(_encode({"i": 1})) + 14] ^= 0xFF  # inside frame 2
        events = list(iter_frames(bytes(mutated)))
        records = [r for k, r in events if k == "record"]
        assert {"i": 1} in records and {"i": 3} in records
        assert {"i": 2} not in records
        assert any(k == "corrupt" for k, _ in events)

    def test_truncated_tail_reported_once(self):
        data = _encode({"i": 1}) + _encode({"i": 2})[:-5]
        events = list(iter_frames(data))
        assert [r for k, r in events if k == "record"] == [{"i": 1}]
        assert [k for k, _ in events].count("truncated") == 1

    def test_false_magic_inside_payload_is_harmless(self):
        data = _encode({"marker": MAGIC.decode("latin-1")})
        records = [r for k, r in iter_frames(data) if k == "record"]
        assert len(records) == 1


# ---------------------------------------------------------------------------
# store round trips and refusal rules
# ---------------------------------------------------------------------------
class TestResultStore:
    def test_entries_and_reports_survive_reopen(self, tmp_path):
        store = opened(tmp_path)
        assert store.append_entry("k-det", None, outcome())
        assert store.append_entry("k-seed", 3, outcome(rng_used=True))
        assert store.put_report({"app": "synth", "verdicts": []})
        store.close()

        fresh = opened(tmp_path)
        assert fresh.stats.entries_loaded == 2
        assert fresh.stats.reports_loaded == 1
        hit, seed_sensitive = fresh.lookup_entry("k-det", 99)
        assert hit is not None and hit.ok and not seed_sensitive
        hit, seed_sensitive = fresh.lookup_entry("k-seed", 3)
        assert hit is not None and seed_sensitive
        miss, _ = fresh.lookup_entry("k-seed", 4)  # other seed: miss
        assert miss is None
        assert fresh.stats.hits == 2 and fresh.stats.misses == 1

    def test_lookup_returns_a_copy(self, tmp_path):
        writer = opened(tmp_path)
        writer.append_entry("k", None, outcome())
        writer.close()
        store = opened(tmp_path)
        first, _ = store.lookup_entry("k", 0)
        first.retries = 99
        second, _ = store.lookup_entry("k", 0)
        assert second.retries == 0

    def test_digest_mismatch_refused_not_served(self, tmp_path):
        store = opened(tmp_path, digest=7)
        store.append_entry("k", None, outcome())
        store.close()
        skewed = opened(tmp_path, digest=8)
        assert skewed.stats.entries_loaded == 0
        assert skewed.stats.stale_refused == 1
        assert skewed.lookup_entry("k", 0)[0] is None

    def test_other_app_entries_skipped_silently(self, tmp_path):
        store = opened(tmp_path, app="synth")
        store.append_entry("k", None, outcome())
        store.close()
        other = opened(tmp_path, app="hdfs")
        assert other.stats.entries_loaded == 0
        assert other.stats.stale_refused == 0  # different app != stale

    def test_future_version_refused(self, tmp_path):
        store = opened(tmp_path)
        store.append_entry("k", None, outcome())
        store.close()
        with open(segment_paths(store)[0], "ab") as handle:
            handle.write(_encode({"kind": "header",
                                  "version": STORE_VERSION + 1,
                                  "app": "synth", "digest": 7}))
        with pytest.raises(StoreError):
            opened(tmp_path)
        with pytest.raises(StoreError):
            ResultStore(store.root).summary()

    def test_garbage_tail_salvages_all_intact_records(self, tmp_path):
        store = opened(tmp_path)
        store.append_entry("a", None, outcome())
        store.append_entry("b", None, outcome())
        store.close()
        with open(segment_paths(store)[0], "ab") as handle:
            handle.write(MAGIC + b"\x00\x00\x00")  # torn header
            handle.write(b"\x01\x02sector noise\xff\xfe")
        fresh = opened(tmp_path)
        assert fresh.stats.entries_loaded == 2
        assert fresh.lookup_entry("a", 0)[0] is not None
        assert fresh.lookup_entry("b", 0)[0] is not None
        assert fresh.stats.corrupt_records + fresh.stats.truncated_tails > 0
        assert fresh.stats.salvaged_records >= 2

    def test_mid_segment_corruption_keeps_later_records(self, tmp_path):
        store = opened(tmp_path)
        for i in range(8):
            store.append_entry("k%d" % i, None, outcome())
        store.close()
        path = segment_paths(store)[0]
        blob = bytearray(open(path, "rb").read())
        blob[len(blob) // 2] ^= 0xFF
        open(path, "wb").write(bytes(blob))
        fresh = opened(tmp_path)
        # exactly one record dies with the flipped byte; the rest —
        # including records *after* the damage — are salvaged.
        assert fresh.stats.entries_loaded >= 6
        assert fresh.stats.corrupt_records >= 1

    def test_malformed_outcome_record_refused(self, tmp_path):
        store = opened(tmp_path)
        store.close()
        with open(os.path.join(store.segments_dir, "seg-000001.log"),
                  "wb") as handle:
            handle.write(_encode({"kind": "header",
                                  "version": STORE_VERSION,
                                  "app": "synth", "digest": 7}))
            handle.write(_encode({"kind": "entry", "app": "synth",
                                  "digest": 7, "key": "k", "seed": None,
                                  "outcome": {"ok": "not-a-bool-shape",
                                              "retries": []}}))
        fresh = opened(tmp_path)
        assert fresh.stats.entries_loaded == 0
        assert fresh.stats.corrupt_records == 1

    def test_concurrent_writers_get_their_own_segments(self, tmp_path):
        left = opened(tmp_path)
        right = ResultStore(str(tmp_path / "store"))
        right.open("synth", 7)
        left.append_entry("from-left", None, outcome())
        right.append_entry("from-right", None, outcome())
        assert len(segment_paths(left)) == 2
        left.close()
        right.close()
        fresh = opened(tmp_path)
        assert fresh.stats.entries_loaded == 2

    def test_manifest_reconciled_from_directory(self, tmp_path):
        store = opened(tmp_path)
        store.append_entry("k", None, outcome())
        store.close()
        # an older build's advisory manifest, stale here, is ignored: the
        # directory listing is the truth
        with open(os.path.join(store.root, "MANIFEST.json"), "w") as handle:
            json.dump({"version": 1, "segments": ["seg-000009.log"]}, handle)
        fresh = opened(tmp_path)
        assert fresh.stats.entries_loaded == 1
        assert fresh.stats.segments == 1

    def test_gc_compacts_and_preserves_liveness(self, tmp_path):
        store = opened(tmp_path)
        store.append_entry("a", None, outcome())
        store.close()
        again = opened(tmp_path)
        again.append_entry("a", None, outcome(ok=False, error_type="X"))
        again.append_entry("b", 5, outcome(rng_used=True))
        again.close()
        with open(os.path.join(store.segments_dir, "seg-000001.log"),
                  "ab") as handle:
            handle.write(b"\xde\xad")

        result = ResultStore(store.root).gc()
        assert result["compacted_segments"] == 2
        assert result["entries"] == 2  # newest "a" + "b"; duplicate dropped
        assert result["dropped_damage"] >= 1

        fresh = opened(tmp_path)
        assert fresh.stats.segments == 1
        newest_a, _ = fresh.lookup_entry("a", 0)
        assert newest_a is not None and not newest_a.ok  # newest wins
        assert fresh.lookup_entry("b", 5)[0] is not None
        assert fresh.stats.corrupt_records == 0

    def test_gc_skips_live_writer_segment(self, tmp_path):
        import fcntl as fcntl_mod  # flock-less platforms can't run this
        del fcntl_mod
        writer = opened(tmp_path)
        writer.append_entry("live", None, outcome())
        result = ResultStore(writer.root).gc()
        assert result["kept_segments"] == 1
        assert result["compacted_segments"] == 0
        writer.append_entry("after-gc", None, outcome())  # handle survived
        writer.close()
        fresh = opened(tmp_path)
        assert fresh.stats.entries_loaded == 2

    def test_new_segment_after_gc_is_read_last(self, tmp_path):
        for key in ("k1", "k2"):
            session = opened(tmp_path)
            session.append_profile(key, "T", {"executions": 1})
            session.close()
        ResultStore(str(tmp_path / "store")).gc()
        assert opened(tmp_path).profile_for_test("T")["key"] == "k2"
        third = opened(tmp_path)
        third.append_profile("k3", "T", {"executions": 3})
        third.close()
        assert opened(tmp_path).profile_for_test("T")["key"] == "k3"
        names = [os.path.basename(p) for p in segment_paths(third)]
        assert names == ["seg-000003.log", "seg-000004.log"]

    def test_gc_keeps_the_newest_profile_per_test(self, tmp_path):
        # keys that sort against their age: compaction must keep age order
        for key in ("kb", "ka"):
            session = opened(tmp_path)
            session.append_profile(key, "T", {"executions": 1})
            session.close()
        ResultStore(str(tmp_path / "store")).gc()
        assert opened(tmp_path).profile_for_test("T")["key"] == "ka"


# ---------------------------------------------------------------------------
# per-process reuse: a warm open serves exactly what a full scan does
# ---------------------------------------------------------------------------
def cold_open(root, app, digest, store=None):
    """An open built from uncached scans: nothing memoised is consulted."""
    store = store or ResultStore(root)
    store.app, store.digest = app, digest
    for path in store._segment_paths():
        store._apply(_serve_scan(_scan_segment(path), app, digest))
    return store


def served(store):
    """Everything an opened store answers, stats first (lookups count)."""
    stats = asdict(store.stats)
    return (stats,
            list(store._det), list(store._seeded),
            list(store._profiles_by_key), list(store._profile_by_test),
            [store.lookup_entry(key, 0) for key in store._det],
            [store.lookup_entry(key, seed) for key, seed in store._seeded],
            store.lookup_entry("absent", 0),
            [store.lookup_profile(key) for key in store._profiles_by_key],
            [store.profile_for_test(test) for test in store._profile_by_test],
            store.confirmed_params())


@pytest.fixture(scope="module")
def six_app_store(tmp_path_factory):
    """A cold six-application store and each app's corpus digest."""
    from repro.apps import catalog
    from repro.core.orchestrator import run_full_campaign
    root = str(tmp_path_factory.mktemp("six") / "store")
    run_full_campaign(CampaignConfig(store_path=root))
    digests = {}
    for app in catalog.APP_NAMES:
        spec = catalog.spec_for(app)
        digests[app] = corpus_digest(Campaign(app, spec.registry))
    return root, digests


def flip_byte(path):
    blob = bytearray(open(path, "rb").read())
    blob[len(blob) // 2] ^= 0xFF
    open(path, "wb").write(bytes(blob))


def truncate_tail(path):
    size = os.path.getsize(path)
    with open(path, "r+b") as handle:
        handle.truncate(size - 37)


def append_segment(root, app, digest):
    writer = ResultStore(root)
    writer.open(app, digest)
    writer.append_entry("appended", None, outcome(ok=False, error_type="E"))
    writer.append_profile("appended-key", "appended::T", {"executions": 2},
                          confirmed=["p.appended"])
    writer.close()


def replace_root(root, source):
    """``rmtree`` + ``copytree`` of a different store whose only segment
    reuses the name of one the process already decoded."""
    other = root + "-other"
    shutil.copytree(source, other)
    compacted = ResultStore(other).gc()["segment"]
    segments = os.path.join(other, "segments")
    os.rename(os.path.join(segments, compacted),
              os.path.join(segments, "seg-000001.log"))
    shutil.rmtree(root)
    shutil.copytree(other, root)


class TestWarmOpenEqualsCold:
    """Each scenario warms this process on a copy of the six-app store,
    changes the store on disk, then compares a warm open of every app
    with :func:`cold_open`."""

    def _compare(self, root, digests):
        for app, digest in digests.items():
            warm = ResultStore(root)
            warm.open(app, digest)
            assert served(warm) == served(cold_open(root, app, digest)), app

    def _copy(self, tmp_path, six_app_store):
        source, digests = six_app_store
        root = str(tmp_path / "store")
        shutil.copytree(source, root)
        self._compare(root, digests)  # warms every (segment, app)
        return root, digests

    def _segments(self, root):
        return sorted(os.path.join(root, "segments", name)
                      for name in os.listdir(os.path.join(root, "segments")))

    def test_clean_store_twice(self, tmp_path, six_app_store):
        root, digests = self._copy(tmp_path, six_app_store)
        self._compare(root, digests)

    def test_segment_appended_between_opens(self, tmp_path, six_app_store):
        root, digests = self._copy(tmp_path, six_app_store)
        append_segment(root, "hdfs", digests["hdfs"])
        self._compare(root, digests)

    def test_live_segment_grew(self, tmp_path, six_app_store):
        root, digests = self._copy(tmp_path, six_app_store)
        writer = ResultStore(root)
        writer.open("yarn", digests["yarn"])
        writer.append_entry("live-1", None, outcome())
        self._compare(root, digests)
        writer.append_entry("live-2", 4, outcome(rng_used=True))
        writer.append_profile("live-key", "yarn::T", {"executions": 1})
        self._compare(root, digests)
        writer.close()

    def test_byte_flipped_in_place(self, tmp_path, six_app_store):
        root, digests = self._copy(tmp_path, six_app_store)
        path = self._segments(root)[1]
        size = os.path.getsize(path)
        flip_byte(path)
        assert os.path.getsize(path) == size
        self._compare(root, digests)

    def test_truncated_tail(self, tmp_path, six_app_store):
        root, digests = self._copy(tmp_path, six_app_store)
        truncate_tail(self._segments(root)[0])
        self._compare(root, digests)

    def test_deleted_segment(self, tmp_path, six_app_store):
        root, digests = self._copy(tmp_path, six_app_store)
        os.unlink(self._segments(root)[2])
        self._compare(root, digests)

    def test_root_replaced_by_another_store(self, tmp_path, six_app_store):
        root, digests = self._copy(tmp_path, six_app_store)
        replace_root(root, six_app_store[0])
        self._compare(root, digests)

    def test_after_gc(self, tmp_path, six_app_store):
        root, digests = self._copy(tmp_path, six_app_store)
        append_segment(root, "flink", digests["flink"])
        self._compare(root, digests)
        ResultStore(root).gc()
        self._compare(root, digests)

    def test_segment_of_another_app(self, tmp_path, six_app_store):
        root, digests = self._copy(tmp_path, six_app_store)
        append_segment(root, "synth", 7)
        self._compare(root, dict(digests, synth=7))

    def test_future_version_raises_on_every_open(self, tmp_path,
                                                  six_app_store):
        root, digests = self._copy(tmp_path, six_app_store)
        with open(self._segments(root)[3], "ab") as handle:
            handle.write(_encode({"kind": "header",
                                  "version": STORE_VERSION + 1,
                                  "app": "hdfs", "digest": 1}))
        for _ in range(3):
            warm, cold = ResultStore(root), ResultStore(root)
            with pytest.raises(StoreError):
                warm.open("hdfs", digests["hdfs"])
            with pytest.raises(StoreError):
                cold_open(root, "hdfs", digests["hdfs"], store=cold)
            # the counters up to the refusal match as well
            assert asdict(warm.stats) == asdict(cold.stats)

    def test_four_threads_open_at_once(self, tmp_path, six_app_store):
        source, digests = six_app_store
        root = str(tmp_path / "store")
        shutil.copytree(source, root)  # a new root: nothing memoised
        apps = ["hdfs", "hdfs", "mapreduce", "flink"]
        previous = sys.getswitchinterval()
        for _ in range(2):
            barrier = threading.Barrier(len(apps))
            opened_stores = [ResultStore(root) for _ in apps]

            def open_one(index):
                barrier.wait()
                opened_stores[index].open(apps[index], digests[apps[index]])

            threads = [threading.Thread(target=open_one, args=(i,))
                       for i in range(len(apps))]
            sys.setswitchinterval(1e-6)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
            finally:
                sys.setswitchinterval(previous)
            assert not any(thread.is_alive() for thread in threads)
            for app, store in zip(apps, opened_stores):
                assert served(store) == served(
                    cold_open(root, app, digests[app])), app
            append_segment(root, "hdfs", digests["hdfs"])


class TestSessionIsolation:
    def test_append_never_reaches_another_session(self, tmp_path):
        store = opened(tmp_path)
        store.append_profile("k", "T", {"executions": 1})
        store.close()
        first, second = opened(tmp_path), opened(tmp_path)
        first.append_profile("k-new", "T", {"executions": 2})
        first.close()
        assert second.lookup_profile("k-new") is None
        assert second.profile_for_test("T")["key"] == "k"
        for path in segment_paths(first)[1:]:
            os.unlink(path)  # the appended segment is gone from disk
        assert opened(tmp_path).lookup_profile("k-new") is None

    def test_looked_up_records_are_per_session(self, tmp_path):
        store = opened(tmp_path)
        store.append_profile("k", "T", {"executions": 1},
                             confirmed=["p.x"])
        store.close()
        first = opened(tmp_path)
        first.lookup_profile("k")["record"]["executions"] = -1
        first.profile_for_test("T")["confirmed"].append("p.y")
        second = opened(tmp_path)
        assert second.lookup_profile("k")["record"]["executions"] == 1
        assert second.confirmed_params() == {"p.x"}


# ---------------------------------------------------------------------------
# deterministic disk-fault layer
# ---------------------------------------------------------------------------
class TestDiskFaultPlan:
    def test_deterministic_per_seed(self):
        plan = DiskFaultPlan(seed=11, torn_write_prob=0.2,
                             enospc_prob=0.2, crash_after_write_prob=0.1)
        twin = DiskFaultPlan(seed=11, torn_write_prob=0.2,
                             enospc_prob=0.2, crash_after_write_prob=0.1)
        decisions = [plan.write_decision("seg", i) for i in range(200)]
        assert decisions == [twin.write_decision("seg", i)
                             for i in range(200)]
        assert any(d is not None for d in decisions)
        other_label = [plan.write_decision("other", i) for i in range(200)]
        assert other_label != decisions  # label partitions the schedule

    def test_inactive_plan_never_fires(self):
        plan = DiskFaultPlan(seed=1)
        assert not plan.active
        assert all(plan.write_decision("seg", i) is None for i in range(50))

    def test_keep_bytes_is_a_strict_prefix(self):
        plan = DiskFaultPlan(seed=3, torn_write_prob=1.0)
        for i in range(50):
            kept = plan.keep_bytes("seg", i, 100)
            assert 0 <= kept < 100


class TestFaultyFile:
    def _wrapped(self, tmp_path, **probs):
        path = str(tmp_path / "victim.bin")
        counts = {}
        handle = FaultyFile(open(path, "wb"),
                            DiskFaultPlan(seed=0, **probs),
                            label="victim", counts=counts)
        return path, handle, counts

    def test_enospc_writes_nothing(self, tmp_path):
        path, handle, counts = self._wrapped(tmp_path, enospc_prob=1.0)
        with pytest.raises(InjectedDiskFault):
            handle.write(b"x" * 64)
        handle.close()
        assert os.path.getsize(path) == 0
        assert counts == {"enospc": 1}

    def test_torn_write_persists_prefix_then_raises(self, tmp_path):
        path, handle, counts = self._wrapped(tmp_path, torn_write_prob=1.0)
        with pytest.raises(InjectedDiskFault):
            handle.write(b"x" * 64)
        handle.close()
        assert 0 <= os.path.getsize(path) < 64
        assert counts == {"torn-write": 1}

    def test_short_write_lies_about_success(self, tmp_path):
        path, handle, counts = self._wrapped(tmp_path, short_write_prob=1.0)
        assert handle.write(b"x" * 64) == 64  # the lie
        handle.close()
        assert os.path.getsize(path) < 64
        assert counts == {"short-write": 1}

    def test_crash_after_write_is_durable_first(self, tmp_path):
        path, handle, counts = self._wrapped(tmp_path,
                                             crash_after_write_prob=1.0)
        with pytest.raises(InjectedCrash):
            handle.write(b"x" * 64)
        assert os.path.getsize(path) == 64  # write landed, then "death"
        assert counts == {"crash-after-write": 1}

    def test_injected_crash_is_not_an_oserror(self):
        # InjectedCrash models SIGKILL: nothing that catches OSError (or
        # even Exception) may swallow it, or the "crash" would be survived
        # by code that real death would not spare.
        assert not issubclass(InjectedCrash, Exception)


class TestStoreUnderDiskFaults:
    def _plan(self, **probs):
        return DiskFaultPlan(seed=0, **probs)

    def test_enospc_degrades_to_read_only(self, tmp_path):
        store = opened(tmp_path)
        store.append_entry("before", None, outcome())
        store.close()
        chaotic = opened(tmp_path,
                         disk_fault_plan=self._plan(enospc_prob=1.0))
        assert chaotic.stats.entries_loaded == 1  # reads unaffected
        assert not chaotic.append_entry("new", None, outcome())
        assert chaotic.stats.write_errors >= 1
        assert not chaotic.append_entry("again", None, outcome())
        assert chaotic.lookup_entry("before", 0)[0] is not None
        chaotic.close()
        assert opened(tmp_path).stats.entries_loaded == 1

    def test_torn_write_tail_is_salvaged_on_reopen(self, tmp_path):
        store = opened(tmp_path)
        store.append_entry("before", None, outcome())
        store.close()
        chaotic = opened(tmp_path,
                         disk_fault_plan=self._plan(torn_write_prob=1.0))
        assert not chaotic.append_entry("torn", None, outcome())
        assert chaotic.stats.write_errors >= 1
        chaotic.close()
        fresh = opened(tmp_path)
        assert fresh.stats.entries_loaded == 1  # "torn" never served
        assert fresh.lookup_entry("before", 0)[0] is not None
        assert fresh.lookup_entry("torn", 0)[0] is None

    def test_short_write_detected_as_truncation_on_reopen(self, tmp_path):
        store = opened(tmp_path)
        store.append_entry("before", None, outcome())
        store.close()
        chaotic = opened(
            tmp_path, disk_fault_plan=self._plan(short_write_prob=1.0))
        chaotic.close()
        # the short write lies to the writer, so the append path reports
        # success; only the next open can notice the truncation.
        fresh = opened(tmp_path)
        assert fresh.stats.entries_loaded == 1
        assert fresh.lookup_entry("before", 0)[0] is not None

    def test_crash_after_write_loses_nothing_durable(self, tmp_path):
        chaotic = opened(
            tmp_path,
            disk_fault_plan=self._plan(crash_after_write_prob=1.0))
        with pytest.raises(InjectedCrash):
            chaotic.append_entry("k", None, outcome())
        # the first faulted write is the segment *header*; it reached the
        # disk before the simulated death, so reopen finds a valid,
        # entry-less segment — and never crashes.
        fresh = opened(tmp_path)
        assert fresh.stats.entries_loaded == 0
        assert fresh.stats.segments == 1

    def test_probabilistic_chaos_never_corrupts_served_entries(self,
                                                               tmp_path):
        """Moderate chaos over many appends: whatever subset survives,
        reopen serves only CRC-intact records and never raises."""
        plan = DiskFaultPlan(seed=42, torn_write_prob=0.1,
                             short_write_prob=0.1, enospc_prob=0.1)
        survived = set()
        for round_index in range(6):
            store = ResultStore(str(tmp_path / "store"), disk_fault_plan=plan)
            store.open("synth", 7)
            for i in range(10):
                key = "r%d-k%d" % (round_index, i)
                if store.append_entry(key, None, outcome()):
                    survived.add(key)
            store.close()
        fresh = opened(tmp_path)
        assert fresh.stats.entries_loaded > 0
        for key in survived:
            served, _ = fresh.lookup_entry(key, 0)
            # a short write may tear a record the writer believed durable;
            # what matters is that serving never invents or corrupts.
            if served is not None:
                assert served.ok


# ---------------------------------------------------------------------------
# campaign level: warm vs cold
# ---------------------------------------------------------------------------
class TestWarmVersusCold:
    def test_warm_is_byte_identical_and_strictly_cheaper(self, tmp_path):
        base = campaign().run()  # no store at all
        cold = campaign(tmp_path).run()
        warm = campaign(tmp_path).run()
        assert findings(cold) == findings(base)
        assert findings(warm) == findings(base)
        assert warm.executions < cold.executions
        assert warm.store.hits > 0
        assert warm.store.misses == 0
        assert cold.store.appends > 0

    def test_store_implies_exec_cache_reporting(self, tmp_path):
        report = campaign(tmp_path).run()
        assert report.exec_cache_enabled
        assert report.store is not None and report.store.enabled

    def test_corpus_change_invalidates_cleanly(self, tmp_path):
        campaign(tmp_path).run()
        shrunk = campaign(tmp_path, tests=[two_service_test(),
                                           safe_only_test()])
        report = shrunk.run()
        # different corpus digest: nothing served, nothing corrupted,
        # findings match a storeless run of the same corpus.
        assert report.store.hits == 0 or report.store.stale_refused >= 0
        plain = campaign(tests=[two_service_test(), safe_only_test()]).run()
        assert findings(report) == findings(plain)

    def test_campaign_survives_store_disk_chaos(self, tmp_path):
        base = campaign().run()
        plan = DiskFaultPlan(seed=3, torn_write_prob=0.05,
                             short_write_prob=0.05, enospc_prob=0.05)
        chaotic = campaign(tmp_path, disk_fault_plan=plan).run()
        assert findings(chaotic) == findings(base)
        warm = campaign(tmp_path).run()  # reopen after chaos: salvage
        assert findings(warm) == findings(base)

    def test_checkpoint_settings_pin_store_usage(self, tmp_path):
        ck = str(tmp_path / "ck.jsonl")
        campaign(tmp_path, checkpoint_path=ck).run()
        from repro.core.checkpoint import CheckpointError
        with pytest.raises(CheckpointError):
            campaign(tests=synth_tests(), checkpoint_path=ck).run()


# ---------------------------------------------------------------------------
# chaos: SIGKILL a storing campaign subprocess at a random point
# ---------------------------------------------------------------------------
CHILD_SCRIPT = textwrap.dedent("""
    import pathlib
    import sys
    sys.path.insert(0, %(src)r)
    sys.path.insert(0, %(tests)r)
    from test_store import campaign
    print("READY", flush=True)
    campaign(pathlib.Path(%(root)r)).run()
    print("DONE", flush=True)
""")


@pytest.mark.chaos
class TestSigkillChaos:
    def test_sigkill_mid_campaign_then_warm_rerun_is_byte_identical(
            self, tmp_path):
        base = campaign().run()
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        script = CHILD_SCRIPT % {
            "src": SRC_DIR,
            "tests": os.path.dirname(os.path.abspath(__file__)),
            "root": str(tmp_path)}
        killed = 0
        for attempt, delay in enumerate((0.05, 0.2, 0.5)):
            child = subprocess.Popen([sys.executable, "-c", script],
                                     env=env, stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL)
            assert child.stdout.readline().strip() == b"READY"
            time.sleep(delay)
            child.send_signal(signal.SIGKILL)
            child.wait(timeout=30)
            killed += 1
            # reopen after every kill: must never crash, must never have
            # persisted a corrupt serving record.
            store = ResultStore(str(tmp_path / "store"))
            store.open("synth", corpus_digest(campaign(tmp_path)))
            store.close()
        assert killed == 3
        warm = campaign(tmp_path).run()
        assert findings(warm) == findings(base)


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------
class TestStoreCli:
    def _run(self, *argv):
        from repro.cli import main
        return main(list(argv))

    def test_stats_verify_gc_round_trip(self, tmp_path, capsys):
        root = str(tmp_path / "store")
        store = ResultStore(root)
        store.open("synth", 7)
        store.append_entry("k", None, outcome())
        store.put_report({"app": "synth"})
        store.close()

        assert self._run("store", "stats", root) == 0
        out = capsys.readouterr().out
        assert "1 entries" in out and "synth" in out

        assert self._run("store", "verify", root) == 0
        assert "OK" in capsys.readouterr().out

        with open(store._segment_paths()[0], "ab") as handle:
            handle.write(b"\xba\xad")
        assert self._run("store", "verify", root) == 1
        assert "DAMAGED" in capsys.readouterr().err

        assert self._run("store", "gc", root) == 0
        assert "compacted" in capsys.readouterr().out
        assert self._run("store", "verify", root) == 0

    def test_verify_of_empty_store_is_ok(self, tmp_path, capsys):
        assert self._run("store", "verify", str(tmp_path / "fresh")) == 0
        assert "0 record(s)" in capsys.readouterr().out
