"""Page-based B-tree with variable-length keys and values.

Both file name tables in the reproduction (CFS' and FSD's) are this
tree over different pagers.  The tree is a classic B+-tree variant:
values live only in leaves, internal nodes hold separator keys, splits
are size-based (entries are variable length), and deletion rebalances
by merging or evenly redistributing siblings.

The tree keeps no pages or nodes of its own: every node touch is a
``pager.read_node``/``pager.write_node``, so the owning file system
sees and accounts for every page access (FSD's pager is its logged
cache, CFS' pager is write-through to disk).  Nodes are immutable, so
the tree may hold the parsed node the pager hands out; every edit
builds new nodes and writes them back.
"""

from __future__ import annotations

import bisect
import struct
from typing import Iterator

from repro.btree.node import INTERNAL, LEAF, Node, max_entry_bytes
from repro.btree.pager import Pager
from repro.errors import CorruptMetadata
from repro.serial import Unpacker

_META_MAGIC = 0x42543031  # "BT01"
#: meta page layout: magic u32, root u32, height u32, count u64.
_META = struct.Struct("<IIIQ")


class BTree:
    """A B-tree rooted in ``pager`` page 0 (the meta page)."""

    def __init__(self, pager: Pager):
        self.pager = pager
        self._root = 0
        self._height = 0
        self._count = 0
        self._min_node_bytes = pager.page_size // 4
        self._max_entry = max_entry_bytes(pager.page_size)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, pager: Pager) -> "BTree":
        """Format a fresh tree: empty root leaf + meta page."""
        tree = cls(pager)
        root = pager.allocate()
        tree._root = root
        tree._height = 1
        tree._count = 0
        pager.write_node(root, Node(kind=LEAF))
        tree._write_meta()
        return tree

    @classmethod
    def open(cls, pager: Pager) -> "BTree":
        """Open an existing tree by reading its meta page."""
        tree = cls(pager)
        tree._read_meta()
        return tree

    # ------------------------------------------------------------------
    # public operations
    # ------------------------------------------------------------------
    def get(self, key: bytes) -> bytes | None:
        """Return the value for ``key`` or ``None``."""
        found = self.find(key)
        return None if found is None else found[1].values[found[2]]

    def find(self, key: bytes) -> tuple[int, Node, int] | None:
        """Locate ``key``: (leaf page, leaf, index in the leaf), or None."""
        read_node = self.pager.read_node
        page_no = self._root
        node = read_node(page_no)
        while node.kind != LEAF:
            page_no = node.children[bisect.bisect_right(node.keys, key)]
            node = read_node(page_no)
        keys = node.keys
        index = bisect.bisect_left(keys, key)
        if index < len(keys) and keys[index] == key:
            return page_no, node, index
        return None

    def insert(self, key: bytes, value: bytes) -> bool:
        """Insert or replace; returns True if the key was new."""
        if len(key) + len(value) > self._max_entry:
            raise ValueError(
                f"entry of {len(key) + len(value)} bytes exceeds the "
                f"{self._max_entry}-byte limit for {self.pager.page_size}-byte pages"
            )
        was_new, split = self._insert(self._root, key, value)
        if split is not None:
            separator, right_page = split
            new_root = self.pager.allocate()
            self.pager.write_node(
                new_root,
                Node(
                    kind=INTERNAL,
                    keys=(separator,),
                    children=(self._root, right_page),
                ),
            )
            self._root = new_root
            self._height += 1
        if was_new:
            self._count += 1
        if was_new or split is not None:
            self._write_meta()
        return was_new

    def delete(self, key: bytes) -> bool:
        """Delete ``key``; returns True if it existed."""
        deleted = self._delete(self._root, key)
        if not deleted:
            return False
        root = self.pager.read_node(self._root)
        if root.kind != LEAF and not root.keys:
            # The root collapsed to a single child; shrink the tree.
            old_root = self._root
            self._root = root.children[0]
            self._height -= 1
            self.pager.free(old_root)
        self._count -= 1
        self._write_meta()
        return True

    def scan(self, start: bytes | None = None) -> Iterator[tuple[bytes, bytes]]:
        """Iterate entries in key order, beginning at ``start``."""
        # Return the inner iterator directly: a ``yield from`` wrapper
        # would add one generator resume per yielded entry.
        return self._scan(start)

    def scan_prefix(self, prefix: bytes) -> Iterator[tuple[bytes, bytes]]:
        """Iterate entries whose key begins with ``prefix``."""
        for key, value in self._scan(prefix):
            if not key.startswith(prefix):
                return
            yield key, value

    def __len__(self) -> int:
        return self._count

    def __contains__(self, key: bytes) -> bool:
        return self.get(key) is not None

    # ------------------------------------------------------------------
    # meta page
    # ------------------------------------------------------------------
    def _write_meta(self) -> None:
        data = _META.pack(_META_MAGIC, self._root, self._height, self._count)
        self.pager.write(0, data.ljust(self.pager.page_size, b"\x00"))

    def _read_meta(self) -> None:
        reader = Unpacker(self.pager.read(0))
        magic = reader.u32()
        if magic != _META_MAGIC:
            raise CorruptMetadata(f"bad B-tree meta magic {magic:#x}")
        self._root = reader.u32()
        self._height = reader.u32()
        self._count = reader.u64()

    # ------------------------------------------------------------------
    # insert
    # ------------------------------------------------------------------
    def _insert(
        self, page_no: int, key: bytes, value: bytes
    ) -> tuple[bool, tuple[bytes, int] | None]:
        # Descend on the pager's shared nodes; a new node is built only
        # at the levels that change (leaves always do, internal nodes
        # only when a split bubbles up).
        node = self.pager.read_node(page_no)
        keys = node.keys
        if node.kind == LEAF:
            index = bisect.bisect_left(keys, key)
            values = node.values
            was_new = not (index < len(keys) and keys[index] == key)
            if was_new:
                node = Node(
                    LEAF, _inserted(keys, index, key), _inserted(values, index, value)
                )
            else:
                node = Node(LEAF, keys, _replaced(values, index, value))
        else:
            child_index = bisect.bisect_right(keys, key)
            was_new, split = self._insert(node.children[child_index], key, value)
            if split is None:
                return was_new, None
            separator, right_page = split
            node = Node(
                INTERNAL,
                _inserted(keys, child_index, separator),
                (),
                _inserted(node.children, child_index + 1, right_page),
            )

        if node.fits(self.pager.page_size):
            self.pager.write_node(page_no, node)
            return was_new, None
        return was_new, self._split_and_write(page_no, node)

    def _split_and_write(self, page_no: int, node: Node) -> tuple[bytes, int]:
        """Split an oversized node in two; returns (separator, right page)."""
        left, separator, right = _split_node(node)
        right_page = self.pager.allocate()
        self.pager.write_node(page_no, left)
        self.pager.write_node(right_page, right)
        return separator, right_page

    # ------------------------------------------------------------------
    # delete
    # ------------------------------------------------------------------
    def _delete(self, page_no: int, key: bytes) -> bool:
        node = self.pager.read_node(page_no)
        keys = node.keys
        if node.kind == LEAF:
            index = bisect.bisect_left(keys, key)
            if index >= len(keys) or keys[index] != key:
                return False
            self.pager.write_node(
                page_no,
                Node(LEAF, _removed(keys, index), _removed(node.values, index)),
            )
            return True

        child_index = bisect.bisect_right(keys, key)
        if not self._delete(node.children[child_index], key):
            return False
        fixed = self._fix_child(node, child_index)
        if fixed is not None:
            self.pager.write_node(page_no, fixed)
        return True

    def _fix_child(self, parent: Node, child_index: int) -> Node | None:
        """Rebalance ``parent.children[child_index]`` if underfull.

        Returns the rewritten parent, or None when it is unchanged.
        Merges the child with a sibling when the combination fits in
        one page, otherwise redistributes entries evenly between the
        two.
        """
        read_node = self.pager.read_node
        child_page = parent.children[child_index]
        child = read_node(child_page)
        if child.serialized_size() >= self._min_node_bytes and child.keys:
            return None
        if len(parent.children) == 1:
            return None  # nothing to balance against (root's only child)

        if child_index + 1 < len(parent.children):
            left_index = child_index
        else:
            left_index = child_index - 1
        left_page = parent.children[left_index]
        right_page = parent.children[left_index + 1]
        left = child if left_page == child_page else read_node(left_page)
        right = child if right_page == child_page else read_node(right_page)
        separator = parent.keys[left_index]

        merged = _merge_nodes(left, separator, right)
        if merged.fits(self.pager.page_size):
            self.pager.write_node(left_page, merged)
            self.pager.free(right_page)
            return Node(
                INTERNAL,
                _removed(parent.keys, left_index),
                (),
                _removed(parent.children, left_index + 1),
            )

        new_left, new_separator, new_right = _split_node(merged)
        self.pager.write_node(left_page, new_left)
        self.pager.write_node(right_page, new_right)
        return Node(
            INTERNAL,
            _replaced(parent.keys, left_index, new_separator),
            (),
            parent.children,
        )

    # ------------------------------------------------------------------
    # scan
    # ------------------------------------------------------------------
    def scan_leaves(
        self, start: bytes | None = None
    ) -> Iterator[tuple[int, Node, int]]:
        """Yield (page_no, leaf, first) per leaf, in key order.

        Batch counterpart of :meth:`scan` for bulk readers (the name
        table's ``enumerate``): one generator resume per *leaf* instead
        of per entry.  ``first`` is the index of the leaf's first entry
        at or after ``start``.
        """
        for page_no, node, start in self._walk_leaves(start):
            first = 0 if start is None else bisect.bisect_left(node.keys, start)
            yield page_no, node, first

    def _scan(self, start: bytes | None) -> Iterator[tuple[bytes, bytes]]:
        for _, node, start in self._walk_leaves(start):
            if start is None:
                yield from zip(node.keys, node.values)
            else:
                first = bisect.bisect_left(node.keys, start)
                yield from zip(node.keys[first:], node.values[first:])

    def _walk_leaves(
        self, start: bytes | None
    ) -> Iterator[tuple[int, Node, bytes | None]]:
        """Yield (page_no, leaf, start) for every leaf that may hold keys
        at or after ``start``; ``start`` is None past the first leaf."""
        # Iterative depth-first walk (explicit stack, leftmost subtree
        # on top): same node-read order as the recursive form, without
        # a generator frame per level.
        stack: list[tuple[int, bytes | None]] = [(self._root, start)]
        read_node = self.pager.read_node
        while stack:
            page_no, start = stack.pop()
            node = read_node(page_no)
            if node.kind == LEAF:
                yield page_no, node, start
                continue
            keys = node.keys
            first = 0 if start is None else bisect.bisect_right(keys, start)
            children = node.children
            for index in range(len(children) - 1, first, -1):
                stack.append((children[index], None))
            stack.append((children[first], start))

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Verify structural invariants; raises CorruptMetadata on any
        violation.  Used by tests and by FSD's software cross-checks."""
        count = self._check(self._root, None, None, depth=1)
        if count != self._count:
            raise CorruptMetadata(
                f"meta count {self._count} != actual entries {count}"
            )

    def _check(
        self, page_no: int, low: bytes | None, high: bytes | None, depth: int
    ) -> int:
        node = self.pager.read_node(page_no)
        if not node.fits(self.pager.page_size):
            raise CorruptMetadata(f"page {page_no} oversized")
        if list(node.keys) != sorted(node.keys):
            raise CorruptMetadata(f"page {page_no} keys out of order")
        if len(set(node.keys)) != len(node.keys):
            raise CorruptMetadata(f"page {page_no} duplicate keys")
        for key in node.keys:
            if low is not None and key < low:
                raise CorruptMetadata(f"page {page_no} key below bound")
            if high is not None and key >= high:
                raise CorruptMetadata(f"page {page_no} key above bound")
        if node.is_leaf:
            if depth != self._height:
                raise CorruptMetadata(
                    f"leaf {page_no} at depth {depth}, height {self._height}"
                )
            return len(node.keys)
        if not node.keys and page_no == self._root:
            raise CorruptMetadata("internal root with no keys")
        total = 0
        bounds = [low, *node.keys, high]
        for index, child in enumerate(node.children):
            total += self._check(
                child, bounds[index], bounds[index + 1], depth + 1
            )
        return total

    def depth(self) -> int:
        """Current tree height (1 = a single leaf)."""
        return self._height


# ----------------------------------------------------------------------
# node surgery shared by split and rebalance
# ----------------------------------------------------------------------
def _split_node(node: Node) -> tuple[Node, bytes, Node]:
    """Split ``node`` into two of roughly equal serialized size.

    Returns (left, separator, right).  For leaves the separator is the
    first right key (and stays in the leaf); for internal nodes the
    separator is promoted out.
    """
    if node.is_leaf:
        split = _even_split_index(
            [4 + len(k) + len(v) for k, v in zip(node.keys, node.values)]
        )
        left = Node(kind=LEAF, keys=node.keys[:split], values=node.values[:split])
        right = Node(
            kind=LEAF, keys=node.keys[split:], values=node.values[split:]
        )
        return left, right.keys[0], right

    split = _even_split_index([6 + len(k) for k in node.keys])
    # Promote keys[split]; it must leave at least one key on each side.
    split = min(max(split, 1), len(node.keys) - 1)
    left = Node(
        kind=INTERNAL,
        keys=node.keys[:split],
        children=node.children[: split + 1],
    )
    right = Node(
        kind=INTERNAL,
        keys=node.keys[split + 1 :],
        children=node.children[split + 1 :],
    )
    return left, node.keys[split], right


def _merge_nodes(left: Node, separator: bytes, right: Node) -> Node:
    """Combine two siblings (with their parent separator, for internal
    nodes) into a single possibly-oversized node."""
    if left.kind != right.kind:
        raise CorruptMetadata("sibling kind mismatch")
    if left.is_leaf:
        return Node(
            kind=LEAF,
            keys=left.keys + right.keys,
            values=left.values + right.values,
        )
    return Node(
        kind=INTERNAL,
        keys=left.keys + (separator,) + right.keys,
        children=left.children + right.children,
    )


def _inserted(items: tuple, index: int, item) -> tuple:
    return items[:index] + (item,) + items[index:]


def _replaced(items: tuple, index: int, item) -> tuple:
    return items[:index] + (item,) + items[index + 1 :]


def _removed(items: tuple, index: int) -> tuple:
    return items[:index] + items[index + 1 :]


def _even_split_index(entry_sizes: list[int]) -> int:
    """Index splitting ``entry_sizes`` into halves of similar total size;
    both halves are guaranteed non-empty."""
    if len(entry_sizes) < 2:
        raise CorruptMetadata("cannot split a node with fewer than 2 entries")
    total = sum(entry_sizes)
    running = 0
    for index, size in enumerate(entry_sizes):
        running += size
        if running >= total / 2:
            split = index + 1
            break
    return min(max(split, 1), len(entry_sizes) - 1)
