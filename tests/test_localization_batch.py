"""locate_batch equals sequential locate.

The batch API is a pure throughput optimization: for any sequence of Γ
sets it must produce exactly the estimates the sequential ``locate``
loop produces, in the same order.
"""

import numpy as np
import pytest

from repro.geometry.region import kernel_default, set_kernel_default
from repro.knowledge.apdb import ApDatabase
from repro.localization.centroid import CentroidLocalizer
from repro.localization.mloc import MLoc
from repro.net80211.mac import MacAddress

from tests.helpers import make_record


@pytest.fixture
def grid_db():
    """12 APs on a 3x4 grid with staggered ranges → mixed-size Γ sets."""
    records = []
    index = 0
    for row in range(3):
        for col in range(4):
            records.append(make_record(index, col * 70.0, row * 70.0,
                                       90.0 + 15.0 * (index % 3)))
            index += 1
    return ApDatabase(records)


def mixed_gammas(db, count=40, seed=77):
    """Γ sets of varied size: full-coverage points, edges, and unknowns."""
    rng = np.random.default_rng(seed)
    from repro.geometry.point import Point

    gammas = []
    for i in range(count):
        x = float(rng.uniform(-60.0, 280.0))
        y = float(rng.uniform(-60.0, 200.0))
        gamma = set(db.observable_from(Point(x, y)))
        if i % 7 == 0:
            gamma.add(MacAddress(0xDEAD0000 + i))  # unknown AP, skipped
        if i % 11 == 0:
            gamma = set()  # unlocatable
        gammas.append(frozenset(gamma))
    # Duplicates exercise any intra-batch sharing.
    gammas.extend(gammas[:5])
    return gammas


def assert_estimates_match(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        if b is None:
            assert a is None
            continue
        assert a is not None
        assert a.position.is_close(b.position, 1e-9)
        assert a.used_ap_count == b.used_ap_count
        assert a.algorithm == b.algorithm
        assert a.area_m2 == pytest.approx(b.area_m2, abs=1e-6, rel=1e-9)


class TestMLocBatch:
    def test_matches_sequential_locate(self, grid_db):
        localizer = MLoc(grid_db)
        gammas = mixed_gammas(grid_db)
        sequential = [localizer.locate(g) for g in gammas]
        batched = localizer.locate_batch(gammas)
        assert_estimates_match(batched, sequential)

    def test_matches_with_kernels_disabled(self, grid_db):
        localizer = MLoc(grid_db)
        gammas = mixed_gammas(grid_db, count=12, seed=5)
        original = set_kernel_default(False)
        try:
            scalar_batch = localizer.locate_batch(gammas)
        finally:
            set_kernel_default(original)
        assert kernel_default() == original
        kernel_batch = localizer.locate_batch(gammas)
        assert_estimates_match(kernel_batch, scalar_batch)

    def test_vertex_mode_batch(self, grid_db):
        localizer = MLoc(grid_db, mode="vertex")
        gammas = mixed_gammas(grid_db, count=16, seed=9)
        sequential = [localizer.locate(g) for g in gammas]
        assert_estimates_match(localizer.locate_batch(gammas), sequential)

    def test_empty_batch(self, grid_db):
        assert MLoc(grid_db).locate_batch([]) == []

    def test_all_unlocatable(self, grid_db):
        gammas = [frozenset(), frozenset({MacAddress(0xDEAD)})]
        assert MLoc(grid_db).locate_batch(gammas) == [None, None]


class TestBaseLocalizerBatch:
    """The default locate_batch works for any Localizer subclass."""

    def test_centroid_matches_sequential(self, grid_db):
        localizer = CentroidLocalizer(grid_db)
        gammas = mixed_gammas(grid_db, count=20, seed=3)
        sequential = [localizer.locate(g) for g in gammas]
        assert_estimates_match(localizer.locate_batch(gammas), sequential)

    def test_rejects_an_executor(self, grid_db):
        gammas = mixed_gammas(grid_db, count=4, seed=3)
        with pytest.raises(TypeError):
            CentroidLocalizer(grid_db).locate_batch(gammas,
                                                    executor=object())
        with pytest.raises(TypeError):
            MLoc(grid_db).locate_batch(gammas, supervisor=object())
