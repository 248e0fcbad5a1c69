"""Two volumes in one process share no decode state.

Parsed name-table nodes and decoded file properties live in each
volume's own metadata cache, next to the page they came from; no codec
keeps a process-wide memo.  Two volumes populated with identical names
and contents must therefore hold disjoint decoded objects, and a crash
or remount of one must leave the other's cached decodes untouched.
"""

from __future__ import annotations

from repro.btree.node import Node
from repro.core.fsd import FSD
from repro.core.types import FileProperties
from repro.disk.disk import SimDisk
from tests.conftest import TEST_FSD_PARAMS, TEST_GEOMETRY

NAMES = [f"src/mod{index:03d}.mesa" for index in range(60)]


def _populated() -> tuple[SimDisk, FSD]:
    disk = SimDisk(geometry=TEST_GEOMETRY)
    FSD.format(disk, TEST_FSD_PARAMS)
    fs = FSD.mount(disk)
    for name in NAMES:
        fs.create(name, b"same bytes on both volumes")
    fs.force()
    return disk, fs


def _decodes(fs: FSD) -> dict[int, object]:
    """Every decoded object the volume's cache holds, by identity."""
    held: dict[int, object] = {}
    for entry in fs.cache._entries.values():
        if entry.node is not None:
            held[id(entry.node)] = entry.node
        for item in entry.view or ():
            decoded = item[3]
            if isinstance(decoded, tuple):
                held[id(decoded[0])] = decoded[0]
    return held


def test_two_volumes_share_no_nodes_or_properties():
    _, fs_a = _populated()
    _, fs_b = _populated()
    listed_a = fs_a.list("src/")
    listed_b = fs_b.list("src/")
    assert [p.name for p in listed_a] == [p.name for p in listed_b] == NAMES

    decodes_a = _decodes(fs_a)
    decodes_b = _decodes(fs_b)
    assert any(isinstance(obj, Node) for obj in decodes_a.values())
    assert any(isinstance(obj, FileProperties) for obj in decodes_a.values())
    # Equal content, disjoint objects: nothing decoded is shared.
    assert not decodes_a.keys() & decodes_b.keys()
    assert not {id(p) for p in listed_a} & {id(p) for p in listed_b}
    # A listing reuses its own volume's decoded leaf entries.
    assert {id(p) for p in listed_a} <= decodes_a.keys()
    assert [id(p) for p in fs_a.list("src/")] == [id(p) for p in listed_a]


def test_crash_and_remount_leave_the_other_volume_intact():
    disk_a, fs_a = _populated()
    _, fs_b = _populated()
    fs_a.list("src/")
    listed_b = fs_b.list("src/")
    before = _decodes(fs_b)
    assert before

    fs_a.crash()
    fs_a = FSD.mount(disk_a)
    assert [p.name for p in fs_a.list("src/")] == NAMES
    fs_a.unmount()
    fs_a = FSD.mount(disk_a)
    fs_a.list("src/")

    # Volume B's cache entries still hold the very same decodes, and
    # its next listing is served from them.
    assert _decodes(fs_b) == before
    assert [id(p) for p in fs_b.list("src/")] == [id(p) for p in listed_b]
    assert not _decodes(fs_a).keys() & before.keys()
