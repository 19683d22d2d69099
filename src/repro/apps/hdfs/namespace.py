"""HDFS namespace: the NameNode's directory tree, fs limits, snapshots.

Implements the pieces behind four Table-3 parameters:

* ``dfs.namenode.fs-limits.max-component-length`` — enforced on every
  component of a new path;
* ``dfs.namenode.fs-limits.max-directory-items`` — enforced when adding a
  child to a directory;
* ``dfs.namenode.snapshotdiff.allow.snap-root-descendant`` — whether a
  snapshot diff may be scoped to a descendant of the snapshot root;
* ``dfs.image.compress`` — the fsimage serialization used by the
  strict-assertion false positive.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.common.errors import LimitExceededError, SnapshotError


def split_path(path: str) -> List[str]:
    if not path.startswith("/"):
        raise ValueError("HDFS paths are absolute, got %r" % path)
    return [c for c in path.split("/") if c]


@dataclass
class INodeFile:
    name: str
    block_ids: List[int] = field(default_factory=list)
    replication: int = 3


@dataclass
class INodeDirectory:
    name: str
    children: Dict[str, object] = field(default_factory=dict)
    snapshottable: bool = False
    snapshots: Dict[str, Tuple[str, ...]] = field(default_factory=dict)

    def child_dir(self, name: str) -> "INodeDirectory":
        child = self.children.get(name)
        if not isinstance(child, INodeDirectory):
            raise FileNotFoundError("no such directory %r" % name)
        return child


class Namespace:
    """The file-system tree plus fs-limit checks and snapshots."""

    def __init__(self, max_component_length_fn, max_directory_items_fn) -> None:
        self.root = INodeDirectory(name="")
        self._max_component_length_fn = max_component_length_fn
        self._max_directory_items_fn = max_directory_items_fn

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def lookup_dir(self, path: str) -> INodeDirectory:
        node = self.root
        for component in split_path(path):
            node = node.child_dir(component)
        return node

    def lookup_file(self, path: str) -> INodeFile:
        components = split_path(path)
        if not components:
            raise FileNotFoundError(path)
        parent = self.root
        for component in components[:-1]:
            parent = parent.child_dir(component)
        child = parent.children.get(components[-1])
        if not isinstance(child, INodeFile):
            raise FileNotFoundError("no such file %r" % path)
        return child

    def exists(self, path: str) -> bool:
        try:
            node = self.root
            for component in split_path(path):
                child = node.children.get(component) if isinstance(node, INodeDirectory) else None
                if child is None:
                    return False
                node = child
            return True
        except ValueError:
            return False

    # ------------------------------------------------------------------
    # fs-limit enforcement (NameNode-side, using the NameNode's conf)
    # ------------------------------------------------------------------
    def _check_component(self, component: str) -> None:
        limit = self._max_component_length_fn()
        if limit > 0 and len(component) > limit:
            raise LimitExceededError(
                "component name %r (length %d) exceeds "
                "dfs.namenode.fs-limits.max-component-length=%d"
                % (component[:32], len(component), limit))

    def _check_fanout(self, directory: INodeDirectory) -> None:
        limit = self._max_directory_items_fn()
        if limit > 0 and len(directory.children) >= limit:
            raise LimitExceededError(
                "directory %r already holds %d items, "
                "dfs.namenode.fs-limits.max-directory-items=%d"
                % (directory.name, len(directory.children), limit))

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def mkdirs(self, path: str) -> INodeDirectory:
        node = self.root
        for component in split_path(path):
            child = node.children.get(component)
            if child is None:
                self._check_component(component)
                self._check_fanout(node)
                child = INodeDirectory(name=component)
                node.children[component] = child
            if not isinstance(child, INodeDirectory):
                raise FileExistsError("%r is a file" % component)
            node = child
        return node

    def create_file(self, path: str, replication: int = 3) -> INodeFile:
        components = split_path(path)
        if not components:
            raise ValueError("cannot create root")
        parent = self.mkdirs("/" + "/".join(components[:-1])) if len(components) > 1 \
            else self.root
        name = components[-1]
        if name in parent.children:
            raise FileExistsError(path)
        self._check_component(name)
        self._check_fanout(parent)
        inode = INodeFile(name=name, replication=replication)
        parent.children[name] = inode
        return inode

    def delete(self, path: str) -> List[int]:
        """Remove a path; returns block ids of every deleted file."""
        components = split_path(path)
        parent = self.root
        for component in components[:-1]:
            parent = parent.child_dir(component)
        node = parent.children.pop(components[-1], None)
        if node is None:
            raise FileNotFoundError(path)
        return _collect_blocks(node)

    def rename(self, src: str, dst: str) -> None:
        """Move ``src`` under a (created-if-needed) destination path."""
        src_components = split_path(src)
        dst_components = split_path(dst)
        if not src_components or not dst_components:
            raise ValueError("cannot rename the root")
        parent = self.root
        for component in src_components[:-1]:
            parent = parent.child_dir(component)
        node = parent.children.get(src_components[-1])
        if node is None:
            raise FileNotFoundError(src)
        dst_parent = self.mkdirs("/" + "/".join(dst_components[:-1])) \
            if len(dst_components) > 1 else self.root
        name = dst_components[-1]
        if name in dst_parent.children:
            raise FileExistsError(dst)
        self._check_component(name)
        self._check_fanout(dst_parent)
        parent.children.pop(src_components[-1])
        node.name = name
        dst_parent.children[name] = node

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def allow_snapshot(self, path: str) -> None:
        self.lookup_dir(path).snapshottable = True

    def create_snapshot(self, path: str, name: str) -> None:
        directory = self.lookup_dir(path)
        if not directory.snapshottable:
            raise SnapshotError("directory %s is not snapshottable" % path)
        directory.snapshots[name] = tuple(sorted(directory.children))

    def snapshot_diff(self, snapshot_root: str, scope_path: str,
                      from_snapshot: str, allow_descendant_fn) -> List[str]:
        """Entries added under ``scope_path`` since ``from_snapshot``.

        ``scope_path`` may be a strict descendant of the snapshot root
        only when the NameNode's configuration allows it (Table 3:
        dfs.namenode.snapshotdiff.allow.snap-root-descendant).
        """
        root_dir = self.lookup_dir(snapshot_root)
        if from_snapshot not in root_dir.snapshots:
            raise SnapshotError("no snapshot %r under %s" % (from_snapshot,
                                                             snapshot_root))
        if scope_path != snapshot_root:
            if not scope_path.startswith(snapshot_root.rstrip("/") + "/"):
                raise SnapshotError("%s is outside snapshot root %s"
                                    % (scope_path, snapshot_root))
            if not allow_descendant_fn():
                raise SnapshotError(
                    "NameNode declines snapshot diff scoped to descendant %s "
                    "(dfs.namenode.snapshotdiff.allow.snap-root-descendant "
                    "is false)" % scope_path)
        scope_dir = self.lookup_dir(scope_path)
        baseline = set(root_dir.snapshots[from_snapshot])
        return sorted(name for name in scope_dir.children if name not in baseline)

    # ------------------------------------------------------------------
    # fsimage (dfs.image.compress)
    # ------------------------------------------------------------------
    def save_image(self, compress: bool) -> bytes:
        payload = json.dumps(_serialize(self.root), sort_keys=True).encode("utf-8")
        if compress:
            return b"IMGC" + zlib.compress(payload, 6)
        return b"IMGP" + payload

    @staticmethod
    def image_contents(image: bytes) -> bytes:
        """Decode an fsimage regardless of compression (semantic compare)."""
        if image.startswith(b"IMGC"):
            return zlib.decompress(image[4:])
        if image.startswith(b"IMGP"):
            return image[4:]
        raise ValueError("not an fsimage")


def _collect_blocks(node: object) -> List[int]:
    if isinstance(node, INodeFile):
        return list(node.block_ids)
    blocks: List[int] = []
    if isinstance(node, INodeDirectory):
        for child in node.children.values():
            blocks.extend(_collect_blocks(child))
    return blocks


def _serialize(node: object) -> object:
    if isinstance(node, INodeFile):
        return {"type": "file", "name": node.name,
                "blocks": sorted(node.block_ids),
                "replication": node.replication}
    assert isinstance(node, INodeDirectory)
    return {"type": "dir", "name": node.name,
            "children": [_serialize(node.children[k])
                         for k in sorted(node.children)]}
