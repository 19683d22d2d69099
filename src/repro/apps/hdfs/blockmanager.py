"""NameNode block management: replica map, corrupt blocks, placement.

Backs three Table-3 parameters:

* ``dfs.namenode.max-corrupt-file-blocks-returned`` — listing corrupt
  blocks truncates to the NameNode's configured cap;
* ``dfs.namenode.upgrade.domain.factor`` — the upgrade-domain block
  placement policy validates balancer moves against the NameNode's
  configured domain factor;
* ``dfs.blockreport.incremental.intervalMsec`` — deletions only leave the
  block map once the owning DataNode's incremental block report arrives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from repro.common.errors import PlacementPolicyError


@dataclass
class BlockInfo:
    block_id: int
    size: int
    file_path: str
    #: DataNode ids currently holding a replica.
    locations: Set[str] = field(default_factory=set)
    #: replicas deleted on the DataNode but not yet reported to the NameNode.
    pending_deletions: Set[str] = field(default_factory=set)


class BlockManager:
    """The NameNode's view of every block and its replicas."""

    def __init__(self, upgrade_domain_factor_fn, max_corrupt_returned_fn) -> None:
        self._upgrade_domain_factor_fn = upgrade_domain_factor_fn
        self._max_corrupt_returned_fn = max_corrupt_returned_fn
        self.blocks: Dict[int, BlockInfo] = {}
        self.corrupt: Set[int] = set()
        #: DataNode id -> upgrade domain name (set at registration).
        self.upgrade_domains: Dict[str, str] = {}
        self._next_block_id = 1000

    # ------------------------------------------------------------------
    # allocation / bookkeeping
    # ------------------------------------------------------------------
    def allocate(self, file_path: str, size: int) -> BlockInfo:
        info = BlockInfo(block_id=self._next_block_id, size=size,
                         file_path=file_path)
        self._next_block_id += 1
        self.blocks[info.block_id] = info
        return info

    def add_replica(self, block_id: int, dn_id: str) -> None:
        self.blocks[block_id].locations.add(dn_id)

    def live_block_count(self) -> int:
        """Blocks the NameNode still believes have replicas.

        Deliberately ignores ``pending_deletions``: the NameNode's block
        map only shrinks when a DataNode's incremental block report
        arrives, which is exactly the delay
        ``dfs.blockreport.incremental.intervalMsec`` controls.
        """
        return sum(1 for info in self.blocks.values() if info.locations)

    # ------------------------------------------------------------------
    # deletion + incremental block reports
    # ------------------------------------------------------------------
    def begin_deletion(self, block_id: int, dn_id: str) -> None:
        """A replica's deletion was *scheduled* on a DataNode."""
        info = self.blocks.get(block_id)
        if info is not None and dn_id in info.locations:
            info.pending_deletions.add(dn_id)

    def apply_incremental_report(self, dn_id: str,
                                 deleted_block_ids: List[int]) -> None:
        """An IBR arrived: the replicas are really gone now."""
        for block_id in deleted_block_ids:
            info = self.blocks.get(block_id)
            if info is None:
                continue
            info.locations.discard(dn_id)
            info.pending_deletions.discard(dn_id)
            if not info.locations:
                self.blocks.pop(block_id, None)
                self.corrupt.discard(block_id)

    # ------------------------------------------------------------------
    # corrupt blocks (dfs.namenode.max-corrupt-file-blocks-returned)
    # ------------------------------------------------------------------
    def report_bad_blocks(self, block_ids: List[int]) -> None:
        for block_id in block_ids:
            if block_id in self.blocks:
                self.corrupt.add(block_id)

    def list_corrupt_file_blocks(self) -> List[int]:
        """Corrupt blocks, truncated to the NameNode's configured cap."""
        cap = self._max_corrupt_returned_fn()
        return sorted(self.corrupt)[:max(cap, 0)]

    # ------------------------------------------------------------------
    # upgrade-domain placement (dfs.namenode.upgrade.domain.factor)
    # ------------------------------------------------------------------
    def set_upgrade_domain(self, dn_id: str, domain: str) -> None:
        self.upgrade_domains[dn_id] = domain

    def domains_of(self, dn_ids: Set[str]) -> Set[str]:
        return {self.upgrade_domains.get(dn_id, dn_id) for dn_id in dn_ids}

    def validate_move(self, block_id: int, source_dn: str, target_dn: str) -> None:
        """Reject a balancer move that would violate the upgrade-domain
        placement policy *as configured on this NameNode*."""
        info = self.blocks.get(block_id)
        if info is None:
            raise PlacementPolicyError("unknown block %d" % block_id)
        if source_dn not in info.locations:
            raise PlacementPolicyError(
                "block %d has no replica on %s" % (block_id, source_dn))
        after = (info.locations - {source_dn}) | {target_dn}
        required = min(self._upgrade_domain_factor_fn(), len(after))
        distinct = len(self.domains_of(after))
        if distinct < required:
            raise PlacementPolicyError(
                "moving block %d %s->%s leaves %d distinct upgrade domains, "
                "policy requires %d" % (block_id, source_dn, target_dn,
                                        distinct, required))

    def apply_move(self, block_id: int, source_dn: str, target_dn: str) -> None:
        info = self.blocks[block_id]
        info.locations.discard(source_dn)
        info.locations.add(target_dn)
