"""Outer-loop behavior: published trajectory, ascent, feasibility, restarts."""

import dataclasses

import numpy as np
import pytest

from optigon import ccp, cli, verification
from optigon.ccp import (
    CcpConfig,
    CcpStatus,
    StepResult,
    maximize_area,
    run_sweep,
    step,
)
from optigon.conic_solver import SolverConfig, SolverResult, SolverStatus, solve
from optigon.errors import (
    AscentViolation,
    FeasibilityViolation,
    InfeasibleInitial,
    SubproblemFailure,
    UpperBoundViolation,
)
from optigon.formulation import (
    ConeTemplate,
    build_program,
    evaluate,
    polygon_to_vector,
    vector_to_polygon,
)
from optigon.geometry import Polygon, area, build_pendant_polygon, diameter, upper_bound

# best known maximal areas (published optimum values)
KNOWN_AREA = {6: 0.6749814387, 8: 0.7268684802, 10: 0.7491373454, 12: 0.7607298710}

# the published hexagon run: per-iterate areas and the first-iterate coordinates
HEXAGON_TRAJECTORY = [
    0.6749414624,
    0.6749808685,
    0.6749814310,
    0.6749814386,
    0.6749814387,
]
FIRST_ITERATE_UPPER = np.array([(0.500000, 0.397460), (0.339680, 0.940541)])


@pytest.fixture(scope="module")
def hexagon_result():
    return maximize_area(6)


class TestHexagonRun:
    def test_converges_to_known_area(self, hexagon_result):
        assert hexagon_result.status is CcpStatus.CONVERGED
        assert hexagon_result.area == pytest.approx(KNOWN_AREA[6], abs=1e-7)

    def test_outer_iteration_count(self, hexagon_result):
        assert 4 <= hexagon_result.iterations <= 7

    def test_trajectory_matches_published_areas(self, hexagon_result):
        areas = hexagon_result.trace.areas()[1:]
        for computed, published in zip(areas, HEXAGON_TRAJECTORY):
            assert computed == pytest.approx(published, abs=1e-6)

    def test_first_iterate_coordinates(self, hexagon_result):
        first = vector_to_polygon(hexagon_result.trace.records[1].z, 6)
        assert np.abs(first.vertices[1:3] - FIRST_ITERATE_UPPER).max() < 1e-5

    def test_ascent_along_trace(self, hexagon_result):
        objectives = hexagon_result.trace.objectives()
        slack = 10 * 1e-9
        for prev, nxt in zip(objectives, objectives[1:]):
            assert nxt >= prev - slack

    def test_every_iterate_feasible(self, hexagon_result):
        for rec in hexagon_result.trace.records:
            assert rec.max_violation <= 10 * 1e-9

    def test_areas_below_upper_bound(self, hexagon_result):
        cap = upper_bound(6) + 1e-8
        assert all(a <= cap for a in hexagon_result.trace.areas())

    def test_final_polygon_is_small_and_valid(self, hexagon_result):
        hexagon_result.polygon.validate()
        assert diameter(hexagon_result.polygon) <= 1 + 1e-8


class TestStep:
    def test_single_step_reaches_published_first_iterate(self):
        z0 = polygon_to_vector(build_pendant_polygon(6))
        z1, result, *_ = step(ConeTemplate(6), z0, CcpConfig())
        assert result.optimal
        assert area(vector_to_polygon(z1, 6)) == pytest.approx(0.6749414624, abs=1e-6)

    def test_second_step(self):
        template = ConeTemplate(6)
        cfg = CcpConfig()
        z0 = polygon_to_vector(build_pendant_polygon(6))
        z1 = step(template, z0, cfg).z
        z2 = step(template, z1, cfg).z
        assert area(vector_to_polygon(z2, 6)) == pytest.approx(0.6749808685, abs=1e-6)

    def test_step_preserves_feasibility_and_ascent(self):
        prog = build_program(8)
        template = ConeTemplate(8)
        cfg = CcpConfig()
        z = polygon_to_vector(build_pendant_polygon(8))
        for _ in range(3):
            z_next = step(template, z, cfg, warm_start=z).z
            assert evaluate(prog, z_next).min_residual() >= -1e-8
            assert evaluate(prog, z_next).objective >= (
                evaluate(prog, z).objective - cfg.solver.tol_solver
            )
            z = z_next

    def test_step_from_critical_point_is_fixed(self, hexagon_result):
        cfg = CcpConfig()
        z_star = polygon_to_vector(hexagon_result.polygon)
        z_next = step(ConeTemplate(6), z_star, cfg).z
        rel = np.linalg.norm(z_next - z_star) / np.linalg.norm(z_next)
        assert rel <= cfg.epsilon
        new_area = area(vector_to_polygon(z_next, 6))
        assert abs(new_area - hexagon_result.area) <= 1e-8

    def test_subproblem_failure_raises(self):
        cfg = CcpConfig(solver=SolverConfig(max_iterations=2))
        z0 = polygon_to_vector(build_pendant_polygon(6))
        with pytest.raises(SubproblemFailure):
            step(ConeTemplate(6), z0, cfg)


class TestScreening:
    """Each restriction is solved on the distance pairs near unit distance;
    dropped pairs are checked at the candidate and added back if violated."""

    @pytest.mark.parametrize("n", [6, 16, 32])
    def test_keeping_every_pair_is_the_full_solve(self, monkeypatch, n):
        monkeypatch.setattr(ccp, "SCREEN_MARGIN", 1.0)
        template = ConeTemplate(n)
        cfg = CcpConfig()
        z0 = polygon_to_vector(build_pendant_polygon(n))
        full = solve(template.at(z0), cfg.solver, warm_start=z0)
        z1, screened, kept, resolves = step(template, z0, cfg, warm_start=z0)
        assert (kept, resolves) == (template.n_pairs, 0)
        assert np.array_equal(z1, full.primal)
        assert np.array_equal(screened.primal, full.primal)
        assert (screened.status, screened.objective, screened.max_primal_residual,
                screened.max_dual_residual, screened.duality_gap, screened.iterations) == (
            full.status, full.objective, full.max_primal_residual,
            full.max_dual_residual, full.duality_gap, full.iterations)

    def test_guard_adds_violated_pairs(self, monkeypatch):
        # two unit chords of the pendant 12-gon round below 1, so margin 0
        # drops them and the first candidate violates them; the tighter
        # solver tolerance makes the two optima comparable to 1e-7 (at 1e-9
        # they agree to ~2e-6, the IPM's own primal accuracy here)
        monkeypatch.setattr(ccp, "SCREEN_MARGIN", 0.0)
        template = ConeTemplate(12)
        cfg = CcpConfig(solver=SolverConfig(tol_solver=1e-11))
        z0 = polygon_to_vector(build_pendant_polygon(12))
        z1, result, kept, resolves = step(template, z0, cfg, warm_start=z0)
        assert resolves >= 1
        assert 0 < kept < template.n_pairs
        full = solve(template.at(z0), cfg.solver, warm_start=z0)
        assert np.abs(z1 - full.primal).max() <= 1e-7
        assert template.evaluate(z1).min_residual() >= -cfg.solver.tol_solver

    def test_records_carry_screening_counts(self, hexagon_result):
        first, *steps = hexagon_result.trace.records
        assert (first.pairs_kept, first.resolves) == (0, 0)
        assert all(0 < rec.pairs_kept <= 10 and rec.resolves >= 0 for rec in steps)


class TestNoVerification:
    """Structure is checked on the reported polygon by the caller, not on
    the iterates of the solve."""

    def test_maximize_area_does_not_verify(self, monkeypatch):
        calls = []
        real_verify = verification.verify_structure

        def counting_verify(polygon, *args, **kwargs):
            calls.append(polygon)
            return real_verify(polygon, *args, **kwargs)

        monkeypatch.setattr(verification, "verify_structure", counting_verify)
        result = maximize_area(8)
        assert result.converged
        assert len(calls) == 0


class TestRestart:
    def test_restart_from_own_output_terminates_in_one_step(self, hexagon_result):
        again = maximize_area(6, initial=hexagon_result.polygon)
        assert again.status is CcpStatus.CONVERGED
        assert again.iterations == 1
        assert abs(again.area - hexagon_result.area) <= 1e-8

    def test_perturbed_start_converges_to_same_area(self, hexagon_result):
        rng = np.random.default_rng(11)
        noisy = build_pendant_polygon(6).vertices + rng.normal(0.0, 1e-3, (6, 2))
        noisy[:, 1] = np.maximum(noisy[:, 1], 0.0)
        noisy -= noisy[0]
        noisy /= diameter(Polygon(noisy))
        perturbed = Polygon(noisy)
        perturbed.validate()
        result = maximize_area(6, initial=perturbed)
        assert result.status is CcpStatus.CONVERGED
        assert result.area == pytest.approx(hexagon_result.area, abs=1e-6)


class TestInitialValidation:
    def test_rejects_infeasible_initial(self):
        too_big = Polygon(
            np.array([(0.0, 0.0), (1.5, 0.0), (1.5, 1.0), (0.0, 1.0)])
        )
        with pytest.raises(InfeasibleInitial):
            maximize_area(4, initial=too_big)

    def test_rejects_wrong_size_initial(self):
        with pytest.raises(InfeasibleInitial):
            maximize_area(8, initial=build_pendant_polygon(6))

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            maximize_area(3)


class TestConfig:
    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValueError):
            CcpConfig(epsilon=0.0).validate()

    def test_solver_tolerance_coupling(self):
        with pytest.raises(ValueError):
            CcpConfig(epsilon=1e-5, solver=SolverConfig(tol_solver=1e-6)).validate()

    def test_settable_fields(self):
        # epsilon and tol_solver are the CLI's --eps and --solver-tol; the two
        # iteration caps reach the OUTER_LIMIT and subproblem-failure paths.
        # A new setting changes this test on purpose.
        assert [f.name for f in dataclasses.fields(CcpConfig)] == [
            "epsilon", "max_outer_iterations", "solver"]
        assert [f.name for f in dataclasses.fields(SolverConfig)] == [
            "tol_solver", "max_iterations"]

    def test_outer_limit_status(self):
        result = maximize_area(6, CcpConfig(max_outer_iterations=2))
        assert result.status is CcpStatus.OUTER_LIMIT
        assert result.iterations == 2


class TestSweep:
    def test_small_sweep_matches_published_areas(self):
        results = run_sweep([6, 8])
        assert [r.n for r in results] == [6, 8]
        for r in results:
            assert r.status is CcpStatus.CONVERGED
            assert r.area == pytest.approx(KNOWN_AREA[r.n], abs=1e-7)

    def test_empty_sweep(self):
        assert run_sweep([]) == []

    def test_failures_are_isolated(self):
        bad_cfg = CcpConfig(solver=SolverConfig(max_iterations=2))
        results = run_sweep([6, 8], bad_cfg)
        assert len(results) == 2
        assert all(r.status is CcpStatus.SUBPROBLEM_FAILURE for r in results)
        assert all(r.message for r in results)


def _scale_u(factor):
    def change(z, n):
        z[2 * (n - 1):] *= factor
        return z
    return change


def _grow_polygon(z, n):
    # every length by 5%, fan areas kept tight: feasible nowhere, area +10%
    z[: 2 * (n - 1)] *= 1.05
    z[2 * (n - 1):] *= 1.05**2
    return z


class TestInvariants:
    """Each runtime invariant of the outer loop has a typed error and makes
    `optigon solve` exit 1 without a traceback."""

    @pytest.mark.parametrize(
        "error, change",
        [
            (AscentViolation, _scale_u(0.5)),
            (FeasibilityViolation, _scale_u(2.0)),
            (UpperBoundViolation, _grow_polygon),
        ],
        ids=["ascent", "feasibility", "upper_bound"],
    )
    def test_broken_step_raises_typed_error(self, monkeypatch, capsys, error, change):
        def broken_step(template, z_k, cfg, warm_start=None):
            z = change(z_k.copy(), template.n)
            return StepResult(z, SolverResult(SolverStatus.OPTIMAL, z, 0.0, 0.0, 0.0, 0.0, 1), 0, 0)

        monkeypatch.setattr(ccp, "step", broken_step)
        with pytest.raises(error) as info:
            maximize_area(6)
        assert info.value.k == 1
        expected = change(polygon_to_vector(build_pendant_polygon(6)), 6)
        assert np.array_equal(info.value.iterate, expected)

        assert cli.main(["solve", "--n", "6"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
