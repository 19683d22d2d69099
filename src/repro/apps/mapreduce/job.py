"""Job driver: launch tasks, run the shuffle, commit the output.

The driver runs inside the unit test (there is no separate AM node in the
corpus, as in many MR whole-system tests), so driver-side decisions —
how many maps/reduces to launch, whether job commit moves ``_temporary``
files — come from the *unit test's* configuration object.
"""

from __future__ import annotations

import json
import zlib
from typing import Any, Dict, List

from repro.apps.mapreduce.tasks import FINAL_OUTPUT_SUFFIX
from repro.common.errors import CommitError
from repro.common.ipc import RpcClient


class JobRunner:
    """Drives one MapReduce job on a MiniMRCluster."""

    def __init__(self, conf: Any, cluster: Any) -> None:
        self.conf = conf
        self.cluster = cluster
        self.rpc = RpcClient(conf, ipc=cluster.ipc)

    def run_wordcount(self, job_id: str, lines: List[str]) -> Dict[str, bytes]:
        """Run a word-count job; returns the output 'directory' (a dict of
        path -> bytes).  Raises on any task or commit failure."""
        num_maps = self.conf.get_int("mapreduce.job.maps")
        num_reduces = self.conf.get_int("mapreduce.job.reduces")

        mappers = [self.cluster.launch_map_task(index)
                   for index in range(num_maps)]
        for index, mapper in enumerate(mappers):
            mapper.run_map(lines[index::num_maps])

        reducers = [self.cluster.launch_reduce_task(index)
                    for index in range(num_reduces)]
        output_fs: Dict[str, bytes] = {}
        for reducer in reducers:
            reducer.run_shuffle()
            reducer.commit_output(output_fs)

        self._job_commit(output_fs)
        self.rpc.call(self.cluster.history_server.rpc, "register_job",
                      job_id, num_maps, num_reduces)
        return output_fs

    def _job_commit(self, output_fs: Dict[str, bytes]) -> None:
        """v1 job commit moves task files out of ``_temporary``; v2 has
        nothing to do (tasks already wrote final files)."""
        version = self.conf.get_int(
            "mapreduce.fileoutputcommitter.algorithm.version")
        if version != 1:
            return
        for path in sorted(p for p in output_fs if p.startswith("_temporary/")):
            body = output_fs.pop(path)
            output_fs[path.rsplit("/", 1)[1]] = body

    # ------------------------------------------------------------------
    def archive_output(self, output_fs: Dict[str, bytes]) -> Dict[str, Any]:
        """Hadoop Archive over the job output: refuses leftover
        ``_temporary`` entries and gaps in the part-file sequence (the
        'Hadoop Archive error' of Table 3)."""
        leftovers = [p for p in output_fs if p.startswith("_temporary/")]
        if leftovers:
            raise CommitError(
                "Hadoop Archive error: uncommitted task output left under "
                "_temporary: %s" % leftovers[0])
        parts = sorted(p for p in output_fs if p.startswith("part-r-"))
        expected = self.conf.get_int("mapreduce.job.reduces")
        if len(parts) != expected:
            raise CommitError(
                "Hadoop Archive error: expected %d part files, found %d"
                % (expected, len(parts)))
        return {"parts": parts, "bytes": sum(len(v) for v in output_fs.values())}

    def read_output(self, output_fs: Dict[str, bytes]) -> Dict[str, int]:
        """Merge all part files back into one word-count dictionary,
        decoding compressed parts by their suffix (the reader follows the
        file name, as TextInputFormat's codec factory does)."""
        merged: Dict[str, int] = {}
        for path, body in output_fs.items():
            if not path.startswith("part-r-"):
                continue
            if path.endswith(FINAL_OUTPUT_SUFFIX):
                body = zlib.decompress(body)
            for word, count in json.loads(body.decode("utf-8")).items():
                merged[word] = merged.get(word, 0) + count
        return merged
