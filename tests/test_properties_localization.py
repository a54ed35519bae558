"""Cross-cutting property-based tests on the localization pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry.point import Point
from repro.knowledge.apdb import ApDatabase, ApRecord
from repro.localization.centroid import CentroidLocalizer
from repro.localization.mloc import MLoc
from repro.localization.radius_lp import RadiusEstimator
from repro.net80211.mac import MacAddress
from repro.net80211.ssid import Ssid

coord = st.floats(min_value=0.0, max_value=300.0,
                  allow_nan=False, allow_infinity=False)
radius = st.floats(min_value=20.0, max_value=120.0,
                   allow_nan=False, allow_infinity=False)


def db_from(aps):
    return ApDatabase(
        ApRecord(bssid=MacAddress(i + 1), ssid=Ssid(f"a{i}"),
                 location=Point(x, y), max_range_m=r)
        for i, (x, y, r) in enumerate(aps)
    )


def covering_aps(draw, truth, count):
    """APs whose discs are guaranteed to contain ``truth``."""
    aps = []
    for _ in range(count):
        x = draw(coord)
        y = draw(coord)
        needed = Point(x, y).distance_to(truth)
        r = needed + draw(st.floats(min_value=5.0, max_value=80.0))
        aps.append((x, y, r))
    return aps


def assert_area_shrinks(aps):
    """Adding discs (the last two of ``aps``) never grows the region."""
    database_small = db_from(aps[:2])
    database_large = db_from(aps)
    small = MLoc(database_small).locate(database_small.bssids)
    large = MLoc(database_large).locate(database_large.bssids)
    # Relative slack: circle-circle vertices for centres ~1e-7 m apart
    # are ill-conditioned, and the exact area then carries up to
    # ~1.3e-10 relative error (scanned over centre offsets 1e-10..1e-4
    # m), far above any absolute bound on a ~1.5e5 m² region.
    assert large.area_m2 <= small.area_m2 + small.area_m2 * 1e-9


class TestMLocProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_translation_equivariance(self, data):
        """Shifting the whole world shifts the estimate identically."""
        truth = Point(data.draw(coord), data.draw(coord))
        count = data.draw(st.integers(min_value=2, max_value=5))
        aps = covering_aps(data.draw, truth, count)
        dx = data.draw(st.floats(min_value=-500.0, max_value=500.0))
        dy = data.draw(st.floats(min_value=-500.0, max_value=500.0))

        base = MLoc(db_from(aps)).locate(
            db_from(aps).bssids)
        shifted_db = db_from([(x + dx, y + dy, r) for x, y, r in aps])
        shifted = MLoc(shifted_db).locate(shifted_db.bssids)
        assert shifted.position.x == pytest.approx(base.position.x + dx,
                                                   abs=1e-6)
        assert shifted.position.y == pytest.approx(base.position.y + dy,
                                                   abs=1e-6)

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_estimate_within_max_radius_of_truth(self, data):
        """With exact covering knowledge the error is bounded by the
        largest disc radius (estimate and truth share the region)."""
        truth = Point(data.draw(coord), data.draw(coord))
        count = data.draw(st.integers(min_value=1, max_value=5))
        aps = covering_aps(data.draw, truth, count)
        database = db_from(aps)
        estimate = MLoc(database).locate(database.bssids)
        max_r = max(r for _, _, r in aps)
        assert estimate.error_to(truth) <= 2.0 * max_r + 1e-6

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_area_shrinks_with_more_aps(self, data):
        truth = Point(150.0, 150.0)
        assert_area_shrinks(covering_aps(data.draw, truth, 4))

    def test_area_shrinks_with_near_coincident_centres(self):
        """Regression: centres ~1e-7 m apart once broke an absolute
        1e-6 m² bound by 1.8e-5 m² (1.2e-10 relative)."""
        truth = Point(150.0, 150.0)
        centres = [(1.0, 0.0), (0.0, 1.19e-7), (0.0, 0.0), (0.0, 0.0)]
        assert_area_shrinks([(x, y, Point(x, y).distance_to(truth) + 5.0)
                             for x, y in centres])


class TestCentroidProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_centroid_inside_bounding_box_of_aps(self, data):
        count = data.draw(st.integers(min_value=1, max_value=6))
        aps = [(data.draw(coord), data.draw(coord), data.draw(radius))
               for _ in range(count)]
        database = db_from(aps)
        estimate = CentroidLocalizer(database).locate(database.bssids)
        xs = [x for x, _, _ in aps]
        ys = [y for _, y, _ in aps]
        assert min(xs) - 1e-9 <= estimate.position.x <= max(xs) + 1e-9
        assert min(ys) - 1e-9 <= estimate.position.y <= max(ys) + 1e-9


class TestRadiusLpProperties:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_solution_satisfies_constraints(self, seed):
        """LP output respects bounds and co-observation lower bounds."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 8))
        locations = {MacAddress(i + 1): Point(*(rng.uniform(0, 300, 2)))
                     for i in range(n)}
        macs = list(locations)
        # Random observations of 2-3 APs each.
        observations = []
        for _ in range(6):
            size = int(rng.integers(2, 4))
            chosen = rng.choice(len(macs), size=min(size, n),
                                replace=False)
            observations.append({macs[i] for i in chosen})
        r_max = 120.0
        estimator = RadiusEstimator(locations, r_max=r_max, r_min=1.0)
        estimate = estimator.fit(observations)
        for mac in macs:
            assert 1.0 - 1e-6 <= estimate.radii[mac] <= r_max + 1e-6
        # Co-observed pairs meet their lower bounds (clamped at 2r_max).
        for observed in observations:
            members = sorted(observed)
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    a, b = members[i], members[j]
                    distance = locations[a].distance_to(locations[b])
                    bound = min(distance, 2.0 * r_max)
                    assert (estimate.radii[a] + estimate.radii[b]
                            >= bound - 1e-5)
