"""Unit and property tests for the Volume Allocation Map."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.layout import VolumeLayout, VolumeParams
from repro.core.types import Run
from repro.core.vam import VolumeAllocationMap
from repro.disk.disk import SimDisk
from repro.disk.geometry import DiskGeometry
from repro.errors import CorruptMetadata, FsError


class TestBitmap:
    def test_fresh_map_all_free(self):
        vam = VolumeAllocationMap(100)
        assert vam.free_count == 100
        assert all(vam.is_free(s) for s in range(100))

    def test_mark_allocated_and_free(self):
        vam = VolumeAllocationMap(100)
        vam.mark_allocated(Run(10, 5))
        assert vam.free_count == 95
        assert not vam.is_free(12)
        vam.mark_free(Run(10, 5))
        assert vam.free_count == 100
        assert vam.is_free(12)

    def test_double_allocation_is_corruption(self):
        vam = VolumeAllocationMap(100)
        vam.mark_allocated(Run(10, 5))
        with pytest.raises(CorruptMetadata):
            vam.mark_allocated(Run(12, 2))

    def test_double_free_is_corruption(self):
        vam = VolumeAllocationMap(100)
        with pytest.raises(CorruptMetadata):
            vam.mark_free(Run(10, 1))

    def test_out_of_range(self):
        vam = VolumeAllocationMap(100)
        with pytest.raises(FsError):
            vam.is_free(100)

    def test_padding_bits_not_free(self):
        """Sectors past total (bitmap padding) stay allocated."""
        vam = VolumeAllocationMap(13)  # not a multiple of 8
        vam.mark_allocated(Run(0, 13))
        assert vam.free_count == 0


class TestShadow:
    def test_shadow_defers_freeing(self):
        vam = VolumeAllocationMap(100)
        vam.mark_allocated(Run(10, 5))
        vam.shadow_free(Run(10, 5))
        assert not vam.is_free(10)  # not yet
        assert vam.shadow_sectors == 5
        vam.commit_shadow()
        assert vam.is_free(10)
        assert vam.shadow_sectors == 0

    def test_commit_empty_shadow(self):
        VolumeAllocationMap(10).commit_shadow()  # no error


class TestFindFreeRun:
    def test_ascending_finds_first_fit(self):
        vam = VolumeAllocationMap(64)
        vam.mark_allocated(Run(0, 10))
        run = vam.find_free_run(0, 64, 5, ascending=True)
        assert run == Run(10, 5)

    def test_ascending_partial(self):
        vam = VolumeAllocationMap(64)
        vam.mark_allocated(Run(0, 10))
        vam.mark_allocated(Run(13, 51))
        run = vam.find_free_run(0, 64, 8, ascending=True)
        assert run == Run(10, 3)

    def test_descending(self):
        vam = VolumeAllocationMap(64)
        vam.mark_allocated(Run(60, 4))
        run = vam.find_free_run(0, 64, 5, ascending=False)
        assert run == Run(55, 5)

    def test_no_space(self):
        vam = VolumeAllocationMap(16)
        vam.mark_allocated(Run(0, 16))
        assert vam.find_free_run(0, 16, 1) is None
        assert vam.find_free_run(0, 16, 1, ascending=False) is None

    def test_window_respected(self):
        vam = VolumeAllocationMap(64)
        run = vam.find_free_run(20, 30, 100, ascending=True)
        assert run is not None
        assert run.start >= 20 and run.end <= 30

    def test_bad_want(self):
        with pytest.raises(FsError):
            VolumeAllocationMap(8).find_free_run(0, 8, 0)

    @given(
        allocated=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=250),
                st.integers(min_value=1, max_value=6),
            ),
            max_size=20,
        ),
        want=st.integers(min_value=1, max_value=30),
        ascending=st.booleans(),
    )
    def test_found_runs_are_really_free(self, allocated, want, ascending):
        vam = VolumeAllocationMap(256)
        taken = set()
        for start, count in allocated:
            run = Run(start, min(count, 256 - start))
            if any(s in taken for s in range(run.start, run.end)):
                continue
            vam.mark_allocated(run)
            taken.update(range(run.start, run.end))
        run = vam.find_free_run(0, 256, want, ascending=ascending)
        if run is None:
            # no free sector at all
            assert len(taken) == 256
        else:
            assert run.count <= want
            assert all(vam.is_free(s) for s in range(run.start, run.end))
            # maximality: a free neighbour on the search side would have
            # been included unless the length cap hit first
            if run.count < want:
                if ascending:
                    assert run.end == 256 or not vam.is_free(run.end)
                else:
                    assert run.start == 0 or not vam.is_free(run.start - 1)

    @settings(max_examples=300)
    @given(
        data=st.data(),
        size=st.integers(min_value=1, max_value=600),
        ascending=st.booleans(),
    )
    def test_next_free_matches_per_sector_scan(self, data, size, ascending):
        # a fully allocated bitmap with a few free sectors, searched
        # over windows whose edges often sit right at a free sector
        sectors = size * 8
        free = data.draw(
            st.lists(st.integers(0, sectors - 1), max_size=4), label="free"
        )
        bits = bytearray(b"\xff" * size)
        for sector in free:
            bits[sector >> 3] &= ~(1 << (sector & 7))
        vam = VolumeAllocationMap(sectors)
        vam._bits = bits
        edges = sorted({0, sectors, *free, *(f + 1 for f in free)})
        bound = st.one_of(st.sampled_from(edges), st.integers(0, sectors))
        lo, hi = sorted((data.draw(bound, "lo"), data.draw(bound, "hi")))

        def is_free(sector):
            return not bits[sector >> 3] & (1 << (sector & 7))

        if ascending:
            expected = next((s for s in range(lo, hi) if is_free(s)), None)
            assert vam._next_free(lo, hi, step=1) == expected
        else:
            expected = next(
                (s for s in range(hi - 1, lo - 1, -1) if is_free(s)), None
            )
            assert vam._next_free(hi - 1, lo - 1, step=-1) == expected


class TestSaveLoad:
    GEO = DiskGeometry(cylinders=120, heads=8, sectors_per_track=24)
    PARAMS = VolumeParams(nt_pages=512, log_record_sectors=300)

    def _setup(self):
        disk = SimDisk(geometry=self.GEO)
        layout = VolumeLayout.compute(self.GEO, self.PARAMS)
        vam = VolumeAllocationMap(self.GEO.total_sectors)
        for run in layout.metadata_runs():
            vam.mark_allocated(run)
        vam.mark_allocated(Run(layout.small_area.start, 37))
        return disk, layout, vam

    def test_roundtrip(self):
        disk, layout, vam = self._setup()
        vam.save(disk, layout, boot_count=5)
        loaded = VolumeAllocationMap(self.GEO.total_sectors)
        assert loaded.load(disk, layout, expect_boot_count=5)
        assert loaded.free_count == vam.free_count
        assert loaded._bits == vam._bits

    def test_stale_boot_count_rejected(self):
        disk, layout, vam = self._setup()
        vam.save(disk, layout, boot_count=5)
        loaded = VolumeAllocationMap(self.GEO.total_sectors)
        assert not loaded.load(disk, layout, expect_boot_count=6)

    def test_damaged_save_rejected(self):
        disk, layout, vam = self._setup()
        vam.save(disk, layout, boot_count=5)
        disk.faults.damage(layout.vam_start + 1)
        loaded = VolumeAllocationMap(self.GEO.total_sectors)
        assert not loaded.load(disk, layout, expect_boot_count=5)

    def test_missing_save_rejected(self):
        disk, layout, _ = self._setup()
        loaded = VolumeAllocationMap(self.GEO.total_sectors)
        assert not loaded.load(disk, layout, expect_boot_count=0)

    def test_cannot_save_with_shadow(self):
        disk, layout, vam = self._setup()
        vam.shadow_free(Run(layout.small_area.start, 1))
        with pytest.raises(FsError):
            vam.save(disk, layout, boot_count=1)
