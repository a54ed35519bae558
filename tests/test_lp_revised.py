"""Sparse revised-simplex tests: pinned to the dense tableau solver.

The revised engine (:mod:`repro.lp.revised`) must agree with
:func:`repro.lp.simplex.solve_lp` on every instance both can express —
that equivalence is the contract that lets AP-Rad swap solvers freely.
Property tests generate random bounded LPs and compare; targeted tests
cover the degenerate / warm-start / softened-infeasible corners that
random sampling rarely hits.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.lp import LpProblem, LpState, solve_lp, solve_revised
from repro.lp.revised import _BasisFactor, _build_csc, _SingularBasis

# Quantized draws: see the rationale in test_lp_simplex.py — denormal
# coefficients make instances so ill-conditioned that two correct
# solvers disagree within their own tolerances.
COEF = st.floats(min_value=-5.0, max_value=5.0,
                 allow_nan=False, allow_infinity=False,
                 ).map(lambda v: round(v * 64.0) / 64.0)
RHS = st.floats(min_value=0.0, max_value=10.0,
                allow_nan=False, allow_infinity=False,
                ).map(lambda v: round(v * 64.0) / 64.0)


def _dense_constraints(constraints, n):
    """Convert sparse (coeffs, sense, rhs) rows to solve_lp matrices."""
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for coefficients, sense, rhs in constraints:
        row = [0.0] * n
        for index, value in coefficients.items():
            row[index] = value
        if sense == "<=":
            a_ub.append(row)
            b_ub.append(rhs)
        elif sense == ">=":
            a_ub.append([-v for v in row])
            b_ub.append(-rhs)
        else:
            a_eq.append(row)
            b_eq.append(rhs)
    return a_ub or None, b_ub or None, a_eq or None, b_eq or None


class TestBasicLps:
    def test_textbook_maximize(self):
        result = solve_revised(
            [1.0, 1.0],
            [({0: 1.0, 1: 2.0}, "<=", 4.0), ({0: 3.0, 1: 1.0}, "<=", 6.0)],
            lower=[0.0, 0.0], upper=[None, None], maximize=True)
        assert result.is_optimal
        assert result.objective == pytest.approx(2.8)
        assert result.x[0] == pytest.approx(1.6)
        assert result.x[1] == pytest.approx(1.2)

    def test_minimize_with_ge_row(self):
        result = solve_revised(
            [1.0, 1.0], [({0: 1.0, 1: 1.0}, ">=", 2.0)],
            lower=[0.0, 0.0], upper=[None, None])
        assert result.is_optimal
        assert result.objective == pytest.approx(2.0)

    def test_equality_constraint(self):
        result = solve_revised(
            [1.0, 2.0], [({0: 1.0, 1: 1.0}, "==", 3.0)],
            lower=[0.0, 0.0], upper=[None, None])
        assert result.is_optimal
        assert result.objective == pytest.approx(3.0)
        assert result.x[0] == pytest.approx(3.0)

    def test_bounds_only(self):
        result = solve_revised([1.0], [], lower=[2.5], upper=[7.0])
        assert result.is_optimal
        assert result.x[0] == pytest.approx(2.5)
        flipped = solve_revised([1.0], [], lower=[2.5], upper=[7.0],
                                maximize=True)
        assert flipped.x[0] == pytest.approx(7.0)

    def test_negative_lower_bound(self):
        result = solve_revised([1.0], [({0: 1.0}, "<=", 4.0)],
                               lower=[-3.0], upper=[None])
        assert result.is_optimal
        assert result.x[0] == pytest.approx(-3.0)

    def test_state_exported_on_optimum(self):
        result = solve_revised(
            [1.0, 1.0], [({0: 1.0, 1: 1.0}, "<=", 4.0)],
            lower=[0.0, 0.0], upper=[None, None], maximize=True)
        assert result.is_optimal
        assert isinstance(result.state, LpState)
        assert len(result.state.row_basic) == 1
        assert not result.warm_started


class TestDegenerateOutcomes:
    def test_infeasible(self):
        result = solve_revised(
            [1.0], [({0: 1.0}, "<=", 1.0), ({0: 1.0}, ">=", 3.0)],
            lower=[0.0], upper=[None])
        assert result.status == "infeasible"
        assert result.x is None

    def test_unbounded(self):
        result = solve_revised([1.0], [], lower=[0.0], upper=[None],
                               maximize=True)
        assert result.status == "unbounded"

    def test_beale_degenerate_terminates(self):
        # The classic cycling example: cycles under naive Dantzig
        # pricing, so termination exercises the Bland fallback path.
        constraints = [
            ({0: 0.25, 1: -60.0, 2: -0.04, 3: 9.0}, "<=", 0.0),
            ({0: 0.5, 1: -90.0, 2: -0.02, 3: 3.0}, "<=", 0.0),
            ({2: 1.0}, "<=", 1.0),
        ]
        result = solve_revised([-0.75, 150.0, -0.02, 6.0], constraints,
                               lower=[0.0] * 4, upper=[None] * 4)
        assert result.is_optimal
        assert result.objective == pytest.approx(-0.05)

    def test_beale_under_forced_bland(self):
        # bland_after=0 makes every pivot use Bland's rule: slower but
        # provably finite, and it must land on the same optimum.
        constraints = [
            ({0: 0.25, 1: -60.0, 2: -0.04, 3: 9.0}, "<=", 0.0),
            ({0: 0.5, 1: -90.0, 2: -0.02, 3: 3.0}, "<=", 0.0),
            ({2: 1.0}, "<=", 1.0),
        ]
        result = solve_revised([-0.75, 150.0, -0.02, 6.0], constraints,
                               lower=[0.0] * 4, upper=[None] * 4,
                               bland_after=0)
        assert result.is_optimal
        assert result.objective == pytest.approx(-0.05)

    def test_redundant_equalities(self):
        result = solve_revised(
            [1.0, 1.0],
            [({0: 1.0, 1: 1.0}, "==", 2.0), ({0: 2.0, 1: 2.0}, "==", 4.0)],
            lower=[0.0, 0.0], upper=[None, None])
        assert result.is_optimal
        assert result.objective == pytest.approx(2.0)


class TestDenseSolverEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_random_lps_match_dense_tableau(self, data):
        n = data.draw(st.integers(min_value=1, max_value=5))
        m = data.draw(st.integers(min_value=0, max_value=6))
        cost = data.draw(st.lists(COEF, min_size=n, max_size=n))
        constraints = []
        for _ in range(m):
            row = data.draw(st.lists(COEF, min_size=n, max_size=n))
            sense = data.draw(st.sampled_from(["<=", ">="]))
            rhs = data.draw(RHS)
            if sense == ">=":
                # Keep the origin feasible so most draws are solvable.
                rhs = -rhs
            coefficients = {j: v for j, v in enumerate(row) if v != 0.0}
            constraints.append((coefficients, sense, rhs))
        maximize = data.draw(st.booleans())

        revised = solve_revised(cost, constraints, lower=[0.0] * n,
                                upper=[10.0] * n, maximize=maximize)
        a_ub, b_ub, a_eq, b_eq = _dense_constraints(constraints, n)
        dense = solve_lp(cost, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq,
                         bounds=[(0.0, 10.0)] * n, maximize=maximize)
        assert revised.status == dense.status
        if dense.is_optimal:
            assert revised.objective == pytest.approx(dense.objective,
                                                      rel=1e-6, abs=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_random_sparse_rows_match_dense(self, data):
        # The AP-Rad shape: many variables, 2-nonzero rows.
        n = data.draw(st.integers(min_value=3, max_value=8))
        m = data.draw(st.integers(min_value=1, max_value=10))
        constraints = []
        for _ in range(m):
            i = data.draw(st.integers(min_value=0, max_value=n - 1))
            j = data.draw(st.integers(min_value=0, max_value=n - 1))
            if i == j:
                j = (i + 1) % n
            sense = data.draw(st.sampled_from(["<=", ">="]))
            rhs = data.draw(st.floats(min_value=1.0, max_value=15.0,
                                      allow_nan=False,
                                      ).map(lambda v: round(v * 64.0) / 64.0))
            constraints.append(({i: 1.0, j: 1.0}, sense, rhs))
        cost = [1.0] * n

        revised = solve_revised(cost, constraints, lower=[0.0] * n,
                                upper=[10.0] * n, maximize=True)
        a_ub, b_ub, a_eq, b_eq = _dense_constraints(constraints, n)
        dense = solve_lp(cost, a_ub=a_ub, b_ub=b_ub,
                         bounds=[(0.0, 10.0)] * n, maximize=True)
        assert revised.status == dense.status
        if dense.is_optimal:
            assert revised.objective == pytest.approx(dense.objective,
                                                      rel=1e-6, abs=1e-6)


class TestWarmStart:
    def test_warm_resolve_matches_cold(self):
        constraints = [
            ({0: 1.0, 1: 1.0}, ">=", 100.0),
            ({1: 1.0, 2: 1.0}, "<=", 160.0),
        ]
        cold = solve_revised([1.0, 1.0, 1.0], constraints,
                             lower=[0.0] * 3, upper=[100.0] * 3,
                             maximize=True)
        assert cold.is_optimal
        warm = solve_revised([1.0, 1.0, 1.0], constraints,
                             lower=[0.0] * 3, upper=[100.0] * 3,
                             maximize=True, warm_start=cold.state)
        assert warm.is_optimal
        assert warm.warm_started
        assert warm.objective == pytest.approx(cold.objective)
        # Restarting at the optimum needs no pivots at all.
        assert warm.iterations == 0

    def test_warm_start_after_appending_rows(self):
        base = [
            ({0: 1.0, 1: 1.0}, ">=", 100.0),
            ({1: 1.0, 2: 1.0}, "<=", 160.0),
        ]
        first = solve_revised([1.0, 1.0, 1.0], base,
                              lower=[0.0] * 3, upper=[100.0] * 3,
                              maximize=True)
        grown = base + [({0: 1.0, 2: 1.0}, "<=", 120.0)]
        cold = solve_revised([1.0, 1.0, 1.0], grown,
                             lower=[0.0] * 3, upper=[100.0] * 3,
                             maximize=True)
        warm = solve_revised([1.0, 1.0, 1.0], grown,
                             lower=[0.0] * 3, upper=[100.0] * 3,
                             maximize=True, warm_start=first.state)
        assert warm.is_optimal and cold.is_optimal
        assert warm.warm_started
        assert warm.objective == pytest.approx(cold.objective)
        np.testing.assert_allclose(np.sort(warm.x), np.sort(cold.x),
                                   atol=1e-6)

    def test_stale_state_degrades_gracefully(self):
        # A state referencing variables the problem no longer has must
        # fall back to a cold-ish start, not crash or return garbage.
        stale = LpState(row_basic=(("v", 99),), at_upper=(("v", 42),))
        result = solve_revised(
            [1.0, 1.0], [({0: 1.0, 1: 1.0}, "<=", 4.0)],
            lower=[0.0, 0.0], upper=[None, None], maximize=True,
            warm_start=stale)
        assert result.is_optimal
        assert result.objective == pytest.approx(4.0)


class TestSoftenedInfeasible:
    def test_slack_penalty_agreement(self):
        # The radius LP's softened shape: a separated row contradicted
        # by a co-observation gets a penalized slack w so the system
        # stays feasible.  Both solvers must agree on the compromise.
        problem = LpProblem(maximize=True)
        r_a = problem.add_variable("r_a", low=1.0, up=100.0)
        r_b = problem.add_variable("r_b", low=1.0, up=100.0)
        w = problem.add_variable("w", low=0.0)
        problem.set_objective({r_a: 1.0, r_b: 1.0, w: -10.0})
        problem.add_constraint({r_a: 1.0, r_b: 1.0}, ">=", 120.0)
        problem.add_constraint({r_a: 1.0, r_b: 1.0, w: -1.0}, "<=", 50.0)
        dense = problem.solve(solver="simplex")
        revised = problem.solve_revised()
        assert dense.is_optimal and revised.is_optimal
        assert revised.objective == pytest.approx(dense.objective,
                                                  abs=1e-6)
        # The slack absorbs exactly the contradiction: w = 120 - 50.
        assert revised.x[w] == pytest.approx(70.0, abs=1e-6)


class TestLpProblemIntegration:
    def test_solver_dispatch(self):
        problem = LpProblem(maximize=True)
        x = problem.add_variable("x", low=0.0, up=5.0)
        problem.set_objective({x: 1.0})
        problem.add_constraint({x: 1.0}, "<=", 3.0)
        via_dense = problem.solve(solver="simplex")
        via_revised = problem.solve(solver="revised")
        assert via_dense.objective == pytest.approx(3.0)
        assert via_revised.objective == pytest.approx(3.0)

    def test_iteration_counts_reported(self):
        problem = LpProblem(maximize=True)
        x = problem.add_variable("x", low=0.0, up=5.0)
        y = problem.add_variable("y", low=0.0, up=5.0)
        problem.set_objective({x: 2.0, y: 1.0})
        problem.add_constraint({x: 1.0, y: 1.0}, "<=", 6.0)
        dense = problem.solve(solver="simplex")
        revised = problem.solve_revised()
        assert dense.iterations > 0
        assert revised.iterations > 0


class TestRefactorizationParity:
    """``refactorizations`` reads uniformly across backends."""

    def _problem(self):
        problem = LpProblem(maximize=True)
        x = problem.add_variable("x", low=0.0, up=5.0)
        y = problem.add_variable("y", low=0.0, up=5.0)
        problem.set_objective({x: 2.0, y: 1.0})
        problem.add_constraint({x: 1.0, y: 1.0}, "<=", 6.0)
        return problem

    def test_solve_dispatch_agrees_with_solve_revised(self):
        problem = self._problem()
        dispatched = problem.solve(solver="revised")
        direct = problem.solve_revised()
        assert dispatched.iterations == direct.iterations
        assert dispatched.refactorizations == direct.refactorizations
        assert dispatched.objective == pytest.approx(direct.objective)

    def test_dense_backend_reports_zero_refactorizations(self):
        result = self._problem().solve(solver="simplex")
        assert result.is_optimal
        assert result.refactorizations == 0

    def test_scipy_backend_reports_zero_refactorizations(self):
        pytest.importorskip("scipy.optimize")
        result = self._problem().solve(solver="scipy")
        assert result.is_optimal
        assert result.refactorizations == 0

    def test_pivot_metrics_land_in_routed_registry(self):
        from repro import obs

        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            result = self._problem().solve(solver="revised")
        counters = registry.snapshot()["counters"]
        assert counters["repro.lp.revised.pivots"] == result.iterations
        assert (counters["repro.lp.revised.refactorizations"]
                == result.refactorizations)


class TestScipyCrossCheck:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_random_lps_match_scipy(self, data):
        linprog = pytest.importorskip("scipy.optimize").linprog
        n = data.draw(st.integers(min_value=1, max_value=5))
        m = data.draw(st.integers(min_value=0, max_value=6))
        cost = data.draw(st.lists(COEF, min_size=n, max_size=n))
        rows = [data.draw(st.lists(COEF, min_size=n, max_size=n))
                for _ in range(m)]
        b_ub = data.draw(st.lists(RHS, min_size=m, max_size=m))
        constraints = [
            ({j: v for j, v in enumerate(row) if v != 0.0}, "<=", rhs)
            for row, rhs in zip(rows, b_ub)
        ]

        ours = solve_revised(cost, constraints, lower=[0.0] * n,
                             upper=[10.0] * n)
        reference = linprog(cost, A_ub=np.array(rows) if m else None,
                            b_ub=np.array(b_ub) if m else None,
                            bounds=[(0.0, 10.0)] * n, method="highs")
        if reference.status == 0:
            assert ours.is_optimal
            assert ours.objective == pytest.approx(reference.fun,
                                                   rel=1e-6, abs=1e-6)
        elif reference.status == 2:
            assert ours.status == "infeasible"


class TestBasisFactor:
    """The sparse-LU basis with its eta file, against dense algebra."""

    @staticmethod
    def _explicit(matrix, basis):
        dense = np.zeros((matrix.m, len(basis)))
        for position, column in enumerate(basis):
            rows, values = matrix.column(int(column))
            dense[rows, position] = values
        return dense

    def _swap_in(self, factor, matrix, basis, rng, count):
        """Pivot ``count`` random structural columns into ``basis``."""
        target = factor.eta_count + count
        while factor.eta_count < target:
            column = int(rng.integers(matrix.n - matrix.m))
            w = factor.ftran(self._explicit(matrix, [column])[:, 0])
            position = int(np.argmax(np.abs(w)))
            if abs(w[position]) < 0.1:
                continue  # an empty or ill-conditioned entering column
            assert factor.update(position, w)
            basis[position] = column

    @pytest.mark.parametrize("updates", [0, 1, 5, 12])
    def test_ftran_btran_match_dense_solve_after_eta_updates(self,
                                                             updates):
        rng = np.random.default_rng(updates)
        n, m = 12, 10
        constraints = []
        for _ in range(m):
            picks = rng.choice(n, size=3, replace=False)
            coefficients = {int(j): float(rng.uniform(0.5, 2.0))
                            for j in picks}
            constraints.append((coefficients, "<=", 1.0))
        matrix, _, _, _ = _build_csc(constraints, n)
        # Factor a non-symmetric basis (a plain slack basis is the
        # identity, where a transposed solve goes unnoticed), then
        # stack eta updates on top of it.
        basis = np.arange(n, n + m, dtype=np.int64)
        self._swap_in(_BasisFactor(matrix, basis), matrix, basis, rng, 6)
        factor = _BasisFactor(matrix, basis)
        self._swap_in(factor, matrix, basis, rng, updates)
        explicit = self._explicit(matrix, basis)
        rhs = rng.normal(size=m)
        np.testing.assert_allclose(factor.ftran(rhs.copy()),
                                   np.linalg.solve(explicit, rhs),
                                   rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(factor.btran(rhs),
                                   np.linalg.solve(explicit.T, rhs),
                                   rtol=1e-9, atol=1e-9)

    # x0 and x1 have identical columns, so any basis holding both is
    # singular — exactly, or to within the U-diagonal test when the
    # copy is perturbed far below working precision.
    @pytest.mark.parametrize("twin", [1.0, 1.0 + 1e-13])
    def test_duplicated_column_is_singular(self, twin):
        constraints = [({0: 1.0, 1: 1.0, 2: 1.0}, "<=", 4.0),
                       ({0: 1.0, 1: twin}, "<=", 3.0)]
        matrix, _, _, _ = _build_csc(constraints, 3)
        with pytest.raises(_SingularBasis):
            _BasisFactor(matrix, np.array([0, 1], dtype=np.int64))

    def test_singular_warm_start_falls_back_to_cold(self):
        constraints = [({0: 1.0, 1: 1.0, 2: 1.0}, "<=", 4.0),
                       ({0: 1.0, 1: 1.0}, "<=", 3.0)]
        args = dict(lower=[0.0] * 3, upper=[None] * 3, maximize=True)
        cold = solve_revised([1.0, 2.0, 1.0], constraints, **args)
        singular = LpState(row_basic=(("v", 0), ("v", 1)))
        warm = solve_revised([1.0, 2.0, 1.0], constraints,
                             warm_start=singular, **args)
        assert cold.is_optimal and warm.is_optimal
        assert not warm.warm_started
        assert warm.objective == pytest.approx(cold.objective)
        np.testing.assert_allclose(warm.x, cold.x)
