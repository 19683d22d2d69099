"""Hadoop Common parameter registry (curated subset of core-default.xml).

Contains the two Common parameters the paper found heterogeneous-unsafe
(Table 3), the four ``ipc.client.*`` parameters behind the shared-IPC
false positives (§7.1), and a realistic population of safe parameters
that nodes read during initialization (feeding ZebraConf's pools).
"""

from __future__ import annotations

from repro.common.params import (BOOL, DURATION_MS, ENUM, INT, SIZE, STR,
                                 ParamRegistry)

COMMON_REGISTRY = ParamRegistry("hadoop-common")
_d = COMMON_REGISTRY.define

# -- heterogeneous-unsafe (Table 3, "Hadoop Common") -----------------------
_d("hadoop.rpc.protection", ENUM, "authentication",
   values=("authentication", "integrity", "privacy"),
   tags=("wire-format",),
   description="SASL QOP for RPC; mismatched peers cannot negotiate.")
_d("ipc.client.rpc-timeout.ms", DURATION_MS, 0,
   candidates=(0, 1000, 120000), tags=("timeout",),
   description="Client-side RPC read deadline; 0 disables it.")

# -- shared-IPC false-positive parameters (§7.1) ----------------------------
_d("ipc.client.connect.max.retries", INT, 10, candidates=(10, 1000, 1),
   description="Connection retry budget (read via the shared IPC component).")
_d("ipc.client.connect.retry.interval", DURATION_MS, 1000,
   candidates=(1000, 100000, 10),
   description="Delay between connection retries.")
_d("ipc.client.idlethreshold", INT, 4000, candidates=(4000, 400000, 40),
   description="Connections above which idle scanning starts.")
_d("ipc.client.kill.max", INT, 10, candidates=(10, 1000, 1),
   description="Max idle connections killed per scan.")

# -- safe parameters read by library code ----------------------------------
_d("io.file.buffer.size", SIZE, 4096,
   description="Buffer size for sequence files and stream copies.")
_d("ipc.server.listen.queue.size", INT, 128,
   description="Server socket accept backlog.")
_d("ipc.client.connect.timeout", DURATION_MS, 20000,
   description="Connection establishment deadline.")
_d("ipc.client.connection.maxidletime", DURATION_MS, 10000,
   description="Idle time before a client connection is culled.")
_d("ipc.maximum.data.length", SIZE, 64 * 1024 * 1024,
   description="Largest acceptable RPC message.")
_d("ipc.server.handler.queue.size", INT, 100,
   description="Calls queued per RPC handler.")

# -- safe parameters typically set in core-site.xml (rarely read in tests) --
_d("fs.defaultFS", STR, "hdfs://localhost:9000",
   description="Default filesystem URI.")
_d("hadoop.tmp.dir", STR, "/tmp/hadoop",
   description="Base for temporary directories.")
_d("fs.trash.interval", INT, 0,
   description="Minutes between trash checkpoints; 0 disables trash.")
_d("fs.trash.checkpoint.interval", INT, 0,
   description="Minutes between trash checkpoint creation.")
_d("fs.df.interval", DURATION_MS, 60000,
   description="Disk-usage refresh interval.")
_d("fs.du.interval", DURATION_MS, 600000,
   description="Filesystem usage refresh interval.")
_d("hadoop.security.authentication", ENUM, "simple",
   values=("simple", "kerberos"),
   description="Cluster authentication mode.")
_d("hadoop.security.authorization", BOOL, False,
   description="Enable service-level authorization checks.")
_d("io.seqfile.compress.blocksize", SIZE, 1000000,
   description="Block size for block-compressed sequence files.")
_d("io.compression.codec.bzip2.library", STR, "system-native",
   description="Which bzip2 implementation to use.")
_d("io.serializations", STR, "org.apache.hadoop.io.serializer.WritableSerialization",
   description="Serialization framework classes.")
_d("net.topology.script.number.args", INT, 100,
   description="Max arguments per topology script invocation.")
_d("hadoop.util.hash.type", ENUM, "murmur", values=("murmur", "jenkins"),
   description="Default Hash implementation.")
_d("io.map.index.skip", INT, 0,
   description="Index entries to skip between reads.")
_d("io.map.index.interval", INT, 128,
   description="MapFile index interval.")
_d("file.stream-buffer-size", SIZE, 4096,
   description="Stream buffer for local filesystem.")
_d("file.blocksize", SIZE, 67108864,
   description="Local filesystem block size.")
_d("file.replication", INT, 1,
   description="Local filesystem replication (always 1).")
_d("hadoop.rpc.socket.factory.class.default", STR,
   "org.apache.hadoop.net.StandardSocketFactory",
   description="Socket factory used by RPC clients.")
_d("hadoop.kerberos.kinit.command", STR, "kinit",
   description="Path to kinit for ticket renewal.")
_d("hadoop.security.groups.cache.secs", INT, 300,
   description="Group mapping cache TTL.")
_d("hadoop.http.filter.initializers", STR,
   "org.apache.hadoop.http.lib.StaticUserWebFilter",
   description="Web UI filter initializer classes.")
_d("hadoop.registry.zk.session.timeout.ms", DURATION_MS, 60000,
   description="ZK registry session timeout.")
_d("hadoop.caller.context.enabled", BOOL, False,
   description="Attach caller context to audit logs.")
_d("hadoop.shell.missing.defaultFs.warning", BOOL, False,
   description="Warn when fs.defaultFS is unset.")
_d("seq.io.sort.mb", SIZE, 100,
   description="Sort buffer for sequence file merges.")
_d("seq.io.sort.factor", INT, 100,
   description="Merge fan-in for sequence file sorts.")


def common_ground_truth() -> dict:
    """Paper ground truth for Hadoop Common (used by benches only)."""
    return {
        "unsafe": ["hadoop.rpc.protection", "ipc.client.rpc-timeout.ms"],
        "false_positives": [
            "ipc.client.connect.max.retries",
            "ipc.client.connect.retry.interval",
            "ipc.client.idlethreshold",
            "ipc.client.kill.max",
        ],
    }
