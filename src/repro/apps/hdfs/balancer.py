"""The HDFS Balancer (and Mover): block-move dispatch with congestion
control, bandwidth-throttled transfers, and placement validation.

Implements the paper's two §7.1 case studies mechanistically:

* ``dfs.datanode.balance.max.concurrent.moves`` — the Balancer dispatches
  as many concurrent moves as *its* configuration allows; a DataNode
  declines a move when its own limit is reached, and the declined
  dispatcher sleeps 1100 ms before retrying ("such congestion control
  adds an extra delay to the whole procedure", making (DataNode:1,
  Balancer:50) ~10x slower than (1, 1)).
* ``dfs.datanode.balance.bandwidthPerSec`` — a source DataNode paces
  outgoing balancing traffic with *its* bandwidth cap while the target
  charges arrived bytes against *its own* cap; a fast sender drives the
  slow receiver's quota deep into deficit, and the receiver's progress
  reports queue behind the deficit until the Balancer times out.
* ``dfs.namenode.upgrade.domain.factor`` — the Balancer plans moves that
  satisfy *its* domain factor; the NameNode validates them against its
  own, declining forever when the Balancer's factor is laxer.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List

from repro.common.errors import BalancerTimeout, PlacementPolicyError
from repro.common.ipc import RpcClient
from repro.common.node import Node, node_init, register_node_type

register_node_type("hdfs", "Balancer")
register_node_type("hdfs", "Mover")

#: simulated seconds one block move occupies a DataNode move slot.
TRANSFER_TIME_S = 0.12
#: the dispatcher's congestion-control back-off after a declined move
#: (1100 ms in HDFS's Balancer, per the paper's analysis).
CONGESTION_BACKOFF_S = 1.1
#: retry delay after a placement-policy rejection.
POLICY_RETRY_DELAY_S = 1.0


class Balancer(Node):
    node_type = "Balancer"

    def __init__(self, conf: Any, cluster: Any) -> None:
        with node_init(self):
            super().__init__(conf, cluster)
            self.rpc_client = RpcClient(self.conf, ipc=cluster.ipc)
            self.completed_moves = 0
            self.policy_rejections = 0
            self.last_progress = 0.0

    # ------------------------------------------------------------------
    # planning (uses the *Balancer's* upgrade-domain factor)
    # ------------------------------------------------------------------
    def my_domain_factor(self) -> int:
        return self.conf.get_int("dfs.namenode.upgrade.domain.factor")

    def pick_target(self, replica_dns: List[str], source_dn: str,
                    candidates: List[str], domains: Dict[str, str],
                    use_namenode_factor: bool = False) -> str:
        """First candidate target satisfying the placement factor.

        By default the Balancer uses *its own* configured factor — the
        Table-3 hazard.  With ``use_namenode_factor`` it applies the
        paper's §7.3 remediation and fetches the factor from the
        NameNode, so its plans always satisfy the validating policy.
        """
        if use_namenode_factor:
            factor = self.rpc_client.call(self.cluster.namenode.rpc,
                                          "get_upgrade_domain_factor")
        else:
            factor = self.my_domain_factor()
        replicas = set(replica_dns)
        for target in candidates:
            after = (replicas - {source_dn}) | {target}
            distinct = {domains.get(dn, dn) for dn in after}
            if len(distinct) >= min(factor, len(after)):
                return target
        raise PlacementPolicyError(
            "Balancer found no target satisfying factor %d" % factor)

    # ------------------------------------------------------------------
    # concurrent block moves (max.concurrent.moves case study)
    # ------------------------------------------------------------------
    def run_balancing(self, moves: List[Dict[str, Any]],
                      timeout_s: float = 100.0,
                      fetch_datanode_limits: bool = False) -> Dict[str, Any]:
        """Execute block moves; raises BalancerTimeout past ``timeout_s``.

        Like HDFS's Balancer, moves are dispatched in *iterations*: up to
        ``dfs.datanode.balance.max.concurrent.moves`` (the **Balancer's**
        value) dispatcher threads fire concurrently, and the next batch
        starts only when the whole batch resolved.  A dispatcher whose
        move is declined by the DataNode backs off 1100 ms and retries —
        so a Balancer that over-dispatches against a 1-slot DataNode
        collapses into ~1 move per back-off period (the paper's ~10x
        slowdown).

        ``fetch_datanode_limits`` applies the §7.3 remediation discussed
        under HDFS-7466: "the Balancer should retrieve this value from
        different DataNodes, and accordingly send different numbers of
        tasks to different DataNodes."  The dispatch width is then capped
        by each source DataNode's own limit, so no move is ever declined.
        """
        start = self.sim.now
        width = max(self.conf.get_int(
            "dfs.datanode.balance.max.concurrent.moves"), 1)
        if fetch_datanode_limits and moves:
            fetched = min(
                self.cluster.datanode(move["source"]).conf.get_int(
                    "dfs.datanode.balance.max.concurrent.moves")
                for move in moves)
            width = max(min(width, fetched), 1)
        self.last_progress = start
        pending = list(moves)

        def _iterate() -> Generator:
            for batch_start in range(0, len(pending), width):
                batch = pending[batch_start:batch_start + width]
                workers = [self.sim.spawn(self._dispatch_one(move),
                                          name="balancer-dispatcher")
                           for move in batch]
                for worker in workers:
                    yield worker  # join: next iteration waits for the batch
            return {"elapsed_s": self.sim.now - start,
                    "moves": self.completed_moves}

        iteration = self.sim.spawn(_iterate(), name="balancer-iterations")

        def _supervise() -> Generator:
            while not iteration.done:
                if self.sim.now - start > timeout_s:
                    raise BalancerTimeout(
                        "balancing did not finish within %.0fs "
                        "(%d/%d moves done, %d policy rejections)"
                        % (timeout_s, self.completed_moves, len(moves),
                           self.policy_rejections))
                yield 0.5
            return iteration.result

        return self.sim.run_process(_supervise(), name="balancer-supervisor")

    def _dispatch_one(self, move: Dict[str, Any]) -> Generator:
        """One dispatcher thread driving one block move to completion."""
        namenode = self.cluster.namenode
        while True:
            try:
                self.rpc_client.call(namenode.rpc, "validate_move",
                                     move["block_id"], move["source"],
                                     move["target"])
            except PlacementPolicyError:
                # The NameNode's policy (its own factor) rejected the move;
                # retry later — rebalancing "never finishes" when the
                # factors disagree.
                self.policy_rejections += 1
                yield POLICY_RETRY_DELAY_S
                continue
            source = self.cluster.datanode(move["source"])
            if not source.try_acquire_move_slot():
                yield CONGESTION_BACKOFF_S  # congestion control
                continue
            yield TRANSFER_TIME_S
            source.release_move_slot()
            self.rpc_client.call(namenode.rpc, "apply_move",
                                 move["block_id"], move["source"],
                                 move["target"])
            self.completed_moves += 1
            self.last_progress = self.sim.now
            return

    # ------------------------------------------------------------------
    # throttled bulk transfer (bandwidthPerSec case study)
    # ------------------------------------------------------------------
    def run_throttled_transfer(self, source_dn: str, target_dn: str,
                               block_bytes: int, chunk_bytes: int = 64 * 1024,
                               progress_timeout_s: float = 3.0,
                               critical_reserve_fraction: float = 0.0
                               ) -> Dict[str, Any]:
        """Stream ``block_bytes`` between two DataNodes, requiring a
        progress report (ack) per chunk; raises BalancerTimeout when the
        gap between acks exceeds ``progress_timeout_s``.

        A positive ``critical_reserve_fraction`` applies the §7.3
        remediation ("each node should reserve a small fraction of
        bandwidth for critical traffic like heartbeats or progress
        reports"): acks ride a reserved slice of the cap instead of
        queueing behind the balancing deficit.
        """
        source = self.cluster.datanode(source_dn)
        target = self.cluster.datanode(target_dn)
        total_chunks = max((block_bytes + chunk_bytes - 1) // chunk_bytes, 1)
        state = {"sent": 0, "acked": 0, "last_ack": self.sim.now}
        ack_bytes = 1024

        def _sender() -> Generator:
            for _ in range(total_chunks):
                yield from source.send_paced(chunk_bytes)
                target.absorb_burst(chunk_bytes)
                state["sent"] += 1

        def _acker() -> Generator:
            while state["acked"] < total_chunks:
                if state["sent"] > state["acked"]:
                    if critical_reserve_fraction > 0:
                        yield from target.send_critical(
                            ack_bytes, critical_reserve_fraction)
                    else:
                        yield from target.send_when_clear()
                    state["acked"] += 1
                    state["last_ack"] = self.sim.now
                else:
                    yield 0.05

        sender = self.sim.spawn(_sender(), name="balancer-sender")
        acker = self.sim.spawn(_acker(), name="balancer-acker")

        def _supervise() -> Generator:
            start = self.sim.now
            while state["acked"] < total_chunks:
                if self.sim.now - state["last_ack"] > progress_timeout_s:
                    raise BalancerTimeout(
                        "DataNode %s sent no progress report for %.1fs "
                        "(bandwidth deficit %.0f bytes)"
                        % (target_dn, self.sim.now - state["last_ack"],
                           target.balance_throttler.deficit))
                yield 0.25
            for process in (sender, acker):
                if process.exception is not None:
                    raise process.exception
            return {"elapsed_s": self.sim.now - start, "chunks": total_chunks}

        return self.sim.run_process(_supervise(), name="transfer-supervisor")


class Mover(Balancer):
    """Storage-policy mover; shares the Balancer's dispatch machinery."""

    node_type = "Mover"
