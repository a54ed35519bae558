"""AP-Rad algorithm tests."""

import pytest

from repro.geometry.point import Point
from repro.knowledge.apdb import ApDatabase
from repro.localization.aprad import APRad
from repro.localization.mloc import MLoc
from repro.net80211.mac import MacAddress

from tests.helpers import make_record


@pytest.fixture
def location_db(square_db):
    return square_db.without_ranges()


class TestLifecycle:
    def test_locate_before_fit_raises(self, location_db):
        aprad = APRad(location_db, r_max=100.0)
        with pytest.raises(RuntimeError, match="before fit"):
            aprad.locate(location_db.bssids)

    def test_fitted_database_has_radii(self, location_db):
        aprad = APRad(location_db, r_max=100.0)
        aprad.fit([set(location_db.bssids)])
        fitted = aprad.fitted_database
        assert all(r.max_range_m is not None for r in fitted)

    def test_estimated_radii_accessor(self, location_db):
        aprad = APRad(location_db, r_max=100.0)
        aprad.fit([set(location_db.bssids)])
        radii = aprad.estimated_radii
        assert set(radii) == set(location_db.bssids)
        assert all(0.0 < r <= 100.0 for r in radii.values())


class TestIncrementalDefault:
    def test_second_partial_fit_warm_starts_without_solver_option(
            self, location_db):
        aprad = APRad(location_db, r_max=100.0)
        bssids = location_db.bssids
        first = aprad.partial_fit([set(bssids[:2])])
        assert not first.warm_started
        aprad.partial_fit([set(bssids[1:3])])
        assert aprad.last_fit.warm_started

    def test_unknown_solver_raises_at_construction(self, location_db):
        with pytest.raises(ValueError, match="unknown solver"):
            APRad(location_db, r_max=100.0, solver="revsed")


class TestLocalization:
    def test_locates_square_center(self, location_db):
        aprad = APRad(location_db, r_max=100.0)
        aprad.fit([set(location_db.bssids)])
        estimate = aprad.locate(location_db.bssids)
        assert estimate is not None
        assert estimate.algorithm == "ap-rad"
        # Symmetric problem: estimate lands near the center.
        assert estimate.position.distance_to(Point(50.0, 50.0)) < 15.0

    def test_fit_and_locate_all(self, location_db):
        aprad = APRad(location_db, r_max=100.0)
        observations = [set(location_db.bssids),
                        set(location_db.bssids[:2])]
        estimates = aprad.fit_and_locate_all(observations)
        assert len(estimates) == 2
        assert all(e is not None for e in estimates)

    def test_unknown_gamma_returns_none(self, location_db):
        aprad = APRad(location_db, r_max=100.0)
        aprad.fit([set(location_db.bssids)])
        assert aprad.locate({MacAddress(0xDEAD)}) is None

    def test_comparable_to_mloc_on_good_evidence(self, square_db):
        """AP-Rad with rich co-observation evidence approaches M-Loc."""
        import numpy as np

        rng = np.random.default_rng(8)
        corpus = []
        for _ in range(300):
            p = Point(*(rng.uniform(0, 100, 2)))
            gamma = square_db.observable_from(p)
            if gamma:
                corpus.append(gamma)
        aprad = APRad(square_db.without_ranges(), r_max=100.0)
        aprad.fit(corpus)
        truth = Point(50.0, 50.0)
        gamma = square_db.observable_from(truth)
        aprad_error = aprad.locate(gamma).error_to(truth)
        mloc_error = MLoc(square_db).locate(gamma).error_to(truth)
        assert aprad_error <= mloc_error + 20.0
