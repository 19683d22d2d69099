"""MapTask and ReduceTask: the shuffle and the output-commit protocol.

Every encode/decode decision is made with the *task's own* configuration:

* a MapTask partitions its output into ``mapreduce.job.reduces`` buckets,
  spills them compressed/encrypted per its own flags, and serves them
  over SSL (or not) per its own shuffle setting;
* a ReduceTask fetches one output per ``mapreduce.job.maps`` map id,
  expecting its own transport/compression/encryption settings, and
  commits its part file with its own committer algorithm version and
  final-output compression.

This is the whole Table-3 MapReduce family, reproduced mechanistically.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple

from repro.common.errors import ShuffleError
from repro.common.node import Node, node_init, register_node_type
from repro.common.wire import decode_payload, encode_payload

register_node_type("mapreduce", "MapTask")
register_node_type("mapreduce", "ReduceTask")
register_node_type("mapreduce", "JobHistoryServer")

#: job-scoped key for encrypted intermediate data (rolled per job in real
#: MR; constant here because key distribution is not the failure mode).
INTERMEDIATE_DATA_KEY = b"mr-intermediate-key"

#: filename suffix per final-output codec (cf. TextOutputFormat).
FINAL_OUTPUT_SUFFIX = ".gz"


def _partition(key: str, num_partitions: int) -> int:
    return sum(key.encode("utf-8")) % max(num_partitions, 1)


class MapTask(Node):
    node_type = "MapTask"

    def __init__(self, conf: Any, cluster: Any, task_index: int) -> None:
        with node_init(self):
            super().__init__(conf, cluster)
            self.task_index = task_index
            self._sort_mb = self.conf.get_int("mapreduce.task.io.sort.mb")
            #: internal field behind the private-API false positive.
            self._io_sort_factor = self.conf.get_int(
                "mapreduce.task.io.sort.factor")
            self._speculative = self.conf.get_bool("mapreduce.map.speculative")
            #: partition index -> list of (key, value) pairs.
            self._spills: Dict[int, List[Tuple[str, int]]] = {}

    # ------------------------------------------------------------------
    def run_map(self, records: List[str]) -> None:
        """Word-count map over the input slice; spill per partition."""
        num_partitions = self.conf.get_int("mapreduce.job.reduces")
        for line in records:
            for word in line.split():
                bucket = self._spills.setdefault(
                    _partition(word, num_partitions), [])
                bucket.append((word, 1))

    # ------------------------------------------------------------------
    def serve_shuffle(self, partition: int) -> bytes:
        """Serve one partition to a fetching reducer, framed with *this
        mapper's* compression/encryption/SSL settings."""
        self.ensure_running()
        num_partitions = self.conf.get_int("mapreduce.job.reduces")
        if partition >= num_partitions:
            raise ShuffleError(
                "mapper %d wrote %d partitions, reducer asked for "
                "partition %d" % (self.task_index, num_partitions, partition))
        payload = {"pairs": self._spills.get(partition, [])}
        # The codec class is resolved unconditionally (as Hadoop's
        # JobConf.getMapOutputCompressorClass does) and applied only when
        # compression is enabled.
        codec = self.conf.get_enum("mapreduce.map.output.compress.codec")
        if not self.conf.get_bool("mapreduce.map.output.compress"):
            codec = None
        key = (INTERMEDIATE_DATA_KEY
               if self.conf.get_bool("mapreduce.job.encrypted-intermediate-data")
               else None)
        return encode_payload(payload, codec=codec, encryption_key=key,
                              ssl=self.conf.get_bool("mapreduce.shuffle.ssl.enabled"))


class ReduceTask(Node):
    node_type = "ReduceTask"

    def __init__(self, conf: Any, cluster: Any, task_index: int) -> None:
        with node_init(self):
            super().__init__(conf, cluster)
            self.task_index = task_index
            self._parallel_copies = self.conf.get_int(
                "mapreduce.reduce.shuffle.parallelcopies")
            self._io_sort_factor = self.conf.get_int(
                "mapreduce.task.io.sort.factor")
            self._speculative = self.conf.get_bool(
                "mapreduce.reduce.speculative")
            self.counts: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def run_shuffle(self) -> None:
        """Copy one map output per map id this reducer *believes* exists."""
        expected_maps = self.conf.get_int("mapreduce.job.maps")
        for map_index in range(expected_maps):
            mapper = self.cluster.map_task(map_index)
            if mapper is None:
                raise ShuffleError(
                    "reducer %d fails copying mapper %d output: no such "
                    "map task (job launched fewer maps)"
                    % (self.task_index, map_index))
            raw = mapper.serve_shuffle(self.task_index)
            codec = self.conf.get_enum("mapreduce.map.output.compress.codec")
            if not self.conf.get_bool("mapreduce.map.output.compress"):
                codec = None
            key = (INTERMEDIATE_DATA_KEY
                   if self.conf.get_bool(
                       "mapreduce.job.encrypted-intermediate-data")
                   else None)
            payload = decode_payload(
                raw, codec=codec, encryption_key=key,
                ssl=self.conf.get_bool("mapreduce.shuffle.ssl.enabled"))
            for word, count in payload["pairs"]:
                self.counts[word] = self.counts.get(word, 0) + count

    # ------------------------------------------------------------------
    def commit_output(self, output_fs: Dict[str, bytes]) -> str:
        """Write the part file per *this reducer's* committer version and
        final-output compression setting; returns the path written."""
        body = json.dumps(dict(sorted(self.counts.items()))).encode("utf-8")
        name = "part-r-%05d" % self.task_index
        if self.conf.get_bool("mapreduce.output.fileoutputformat.compress"):
            import zlib
            name += FINAL_OUTPUT_SUFFIX
            body = zlib.compress(body, 6)
        version = self.conf.get_int(
            "mapreduce.fileoutputcommitter.algorithm.version")
        if version == 1:
            path = "_temporary/attempt_r_%05d/%s" % (self.task_index, name)
        else:
            path = name
        output_fs[path] = body
        return path
