"""Tests for the disk + branch-cut synthesis of the spatial impulse response."""

import cmath
import dataclasses
import decimal
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import jv

from reflectmimo import (
    CONCRETE,
    FLOOR_BOARD,
    FREE_SPACE_IMPEDANCE,
    PERFECT_CONDUCTOR,
    PLASTER_BOARD,
    VACUUM,
    ArrayLayout,
    ExperimentConfig,
    FieldComponent,
    Material,
    Medium,
    QuadratureSpec,
    SceneConfig,
    SceneError,
    SpatialLag,
    UnderResolvedWarning,
    build_channel_matrices,
    convergence_study,
    dielectric_image_impulse,
    estimate_nodes,
    fresnel_reflection,
    los_impulse,
    material_by_name,
    oscillation_span,
    build_channel_matrix,
    run_named,
    spacing_rayleigh,
    synthesize_impulse,
)
from reflectmimo import quadrature, spectrum
from reflectmimo.closedform import _reflection_series
from reflectmimo.quadrature import (
    _HANKEL_FAR,
    _HANKEL_LAGS,
    _PANEL,
    _TAIL_CUTOFF,
    _TAYLOR_NEAR,
    _TAYLOR_SPREAD,
    _coefficients,
    _lag_path,
    _leg,
    _leg_j0,
    _nodes_used,
    _part_specs,
    _path,
    _rule,
    _segment,
    _synthesize_on_planes,
)

FREQUENCY = 57.5e9
_ORACLE_BLOCK = 1 << 14  # nodes per block of the rules fed to the trapezoid oracle


def _auto_spec(scene, component, lag):
    return estimate_nodes(scene, lag.transverse, oscillation_span(scene, component))


def _required_nodes(scene, component, lags):
    """The node count resolving every lag: the largest :func:`estimate_nodes`
    over the lags, each on its own pair of planes."""
    return QuadratureSpec(max(_auto_spec(_on_planes(scene, lag), component, lag).n_alpha
                              for lag in lags))


def _on_planes(scene, lag):
    """The scene on the lag's planes."""
    return dataclasses.replace(
        scene, receiver_z=scene.receiver_z if lag.receiver_z is None else lag.receiver_z,
        source_z=scene.source_z if lag.source_z is None else lag.source_z)


def _shared_rules(scene, component, spec, max_rho):
    """The (k_rho, coefficient) nodes along the shared paths of
    :func:`_path` for lags up to ``max_rho``, one path per part of the
    component, in blocks of at most ``_ORACLE_BLOCK`` nodes."""
    kappa1 = scene.medium.kappa1
    blocks = []
    for part, part_spec in _part_specs([scene], component, spec):
        path = _path([scene], part, part_spec, part_spec.n_alpha, np.array([max_rho]),
                     per_lag=False)
        segment = _segment(kappa1, *_rule(path.panels * _PANEL, path.angle))
        leg = _leg(kappa1, path.angle, -1.0, path.depth, *_rule(path.leg_nodes, _TAIL_CUTOFF))
        for krho, k1z, weight, angle in (segment, leg):
            coeff = _coefficients([scene], part, k1z, weight,
                                  None if path.straight else angle)[:, 0]
            blocks += [(krho[i:i + _ORACLE_BLOCK], coeff[i:i + _ORACLE_BLOCK])
                       for i in range(0, krho.size, _ORACLE_BLOCK)]
    return blocks


def _trapezoid_synthesis(scene, component, lags, spec):
    """Reference for the Bessel reduction that does not assume it.

    Applies the coefficients along the synthesis path to the n-point
    periodic trapezoid in azimuth, (1/n) sum_j e^{i k_rho (x cos b_j +
    y sin b_j)}, instead of J0(k_rho |lag|); on the bent leg k_rho is
    complex and the identity still holds.  n passes the order/argument
    transition z + O(z^{1/3}) of the largest phase swing z = |k_rho| |lag|,
    so the trapezoid's aliased Bessel terms fall below round-off.  The lags
    lie on the scene's planes; the paths, one per part of the component,
    are the ones the synthesis takes for the largest, and their rules are
    taken block by block.
    """
    rho_max = max(lag.transverse for lag in lags)
    values = np.zeros(len(lags), dtype=complex)
    for krho, coeff in _shared_rules(scene, component, spec, rho_max):
        z = float(np.abs(krho).max()) * rho_max
        n = int(math.ceil(z + 16.0 * z ** (1.0 / 3.0) + 16.0))
        beta = 2.0 * math.pi * np.arange(n) / n
        for i, lag in enumerate(lags):
            phase = np.outer(krho, lag.x * np.cos(beta) + lag.y * np.sin(beta))
            values[i] += coeff @ np.exp(1j * phase).mean(axis=1)
    return values


def _los_scene(medium, dz=1.0):
    return SceneConfig(
        medium=medium, surface_z=dz + 1.0, source_z=0.0, receiver_z=dz
    )


class TestSpecAndLag:
    def test_spec_bounds(self):
        QuadratureSpec(n_alpha=2)
        with pytest.raises(ValueError, match="n_alpha"):
            QuadratureSpec(n_alpha=1)

    @pytest.mark.parametrize("n_alpha", [math.nan, 5000.5, True, "64"])
    def test_spec_count_must_be_an_integer(self, n_alpha):
        """A NaN count passed the ``< 2`` check and synthesized a wrong
        value; a float or a bool is no node count.  A numpy integer is one,
        kept as a Python int."""
        with pytest.raises(ValueError, match="n_alpha must be an integer"):
            QuadratureSpec(n_alpha=n_alpha)
        spec = QuadratureSpec(n_alpha=np.int64(4096))
        assert spec == QuadratureSpec(4096) and type(spec.n_alpha) is int

    def test_lag_transverse(self):
        assert SpatialLag(3.0, 4.0).transverse == pytest.approx(5.0)
        assert SpatialLag(0.25).transverse == 0.25


class TestEstimateNodes:
    def test_frozen_small_case(self, vacuum_medium):
        scene = _los_scene(vacuum_medium, dz=10.0 * vacuum_medium.wavelength)
        spec = estimate_nodes(scene, 0.0, 10.0 * vacuum_medium.wavelength)
        assert spec == QuadratureSpec(n_alpha=60)

    def test_frozen_room_scale_case(self, vacuum_medium):
        scene = SceneConfig(
            medium=vacuum_medium, surface_z=21.0, source_z=0.0, receiver_z=20.0
        )
        spec = estimate_nodes(scene, 0.6, 20.6)
        assert spec == QuadratureSpec(n_alpha=24397)

    def test_scales_linearly_in_span(self, vacuum_medium):
        scene = _los_scene(vacuum_medium)
        small = estimate_nodes(scene, 0.0, 1.0)
        large = estimate_nodes(scene, 0.0, 2.0)
        assert large.n_alpha == pytest.approx(2 * small.n_alpha, abs=1)

    def test_negative_arguments_rejected(self, vacuum_medium):
        scene = _los_scene(vacuum_medium)
        for bad in (-0.1, math.inf, math.nan):
            with pytest.raises(ValueError, match="max_lag"):
                estimate_nodes(scene, bad, 1.0)
        for bad in (-1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="dz_total"):
                estimate_nodes(scene, 0.0, bad)

    def test_array_of_lags_rounds_as_the_scalar_formula(self, vacuum_medium):
        """A pair of planes is budgeted in one array expression whose every
        element equals the scalar formula, also at its ``- 1e-9`` rounding
        edge, where the phase count lies within 1e-9 of a whole number."""
        kappa1, span, rate = vacuum_medium.kappa1, 1.0, quadrature.OVERSAMPLING
        counts = np.arange(3000.0, 3010.0)[:, None] + np.array([-2, -1, -0.5, 0, 0.5, 1, 2]) * 1e-9
        lags = (counts * 2.0 * math.pi / (rate * kappa1) - span).ravel()
        lags = np.concatenate([lags, np.nextafter(lags, 0.0), np.nextafter(lags, 9.0), [0.0]])
        phases = [rate * kappa1 * (span + lag) / (2.0 * math.pi) for lag in lags.tolist()]
        expected = [max(2, math.ceil(phase - 1e-9)) for phase in phases]
        assert any(math.ceil(phase - 1e-9) != math.ceil(phase) for phase in phases)
        assert quadrature._node_budget(kappa1, span, lags) == expected
        assert [quadrature._node_budget(kappa1, span, lag) for lag in lags.tolist()] == expected
        assert quadrature._node_budget(kappa1, 0.0, np.zeros(2)) == [2, 2]

    @pytest.mark.parametrize("lags, named", [([0.1, math.nan, -1.0], "nan"),
                                             ([0.1, 0.2, math.inf, math.nan], "inf"),
                                             ([-0.5, math.inf], "-0.5")])
    def test_array_names_its_first_bad_lag(self, vacuum_medium, lags, named):
        with pytest.raises(ValueError, match=f"max_lag must be finite and >= 0, got {named}$"):
            quadrature._node_budget(vacuum_medium.kappa1, 1.0, np.array(lags))


class TestAgainstClosedForms:
    def test_los_on_axis(self, vacuum_medium):
        scene = _los_scene(vacuum_medium)
        lag = SpatialLag(0.0)
        spec = _auto_spec(scene, FieldComponent.LOS_ONLY, lag)
        value = synthesize_impulse(scene, FieldComponent.LOS_ONLY, lag, spec)
        expected = los_impulse(vacuum_medium, (0.0, 0.0, 1.0), (0.0, 0.0, 0.0))
        assert value == pytest.approx(expected, rel=1e-8)

    def test_los_off_axis(self, vacuum_medium):
        scene = _los_scene(vacuum_medium)
        lag = SpatialLag(0.35, 0.1)
        spec = _auto_spec(scene, FieldComponent.LOS_ONLY, lag)
        value = synthesize_impulse(scene, FieldComponent.LOS_ONLY, lag, spec)
        expected = los_impulse(vacuum_medium, (0.35, 0.1, 1.0), (0.0, 0.0, 0.0))
        assert value == pytest.approx(expected, rel=1e-8)

    def test_conductor_reflection_is_sign_flipped_mirror(self, conductor_medium):
        d1 = 1.5
        scene = SceneConfig(
            medium=conductor_medium, surface_z=d1, source_z=0.0, receiver_z=0.6
        )
        lag = SpatialLag(0.4)
        spec = _auto_spec(scene, FieldComponent.REFLECTION_ONLY, lag)
        value = synthesize_impulse(scene, FieldComponent.REFLECTION_ONLY, lag, spec)
        expected = -los_impulse(
            conductor_medium, (0.4, 0.0, 0.6), (0.0, 0.0, 2.0 * d1)
        )
        assert value == pytest.approx(expected, rel=1e-8)

    def test_downgoing_matches_two_term_closed_form(self, conductor_medium):
        d1 = 1.0
        scene = SceneConfig(
            medium=conductor_medium, surface_z=d1, source_z=0.0, receiver_z=-0.8
        )
        lag = SpatialLag(0.3)
        spec = _auto_spec(
            scene, FieldComponent.DOWNGOING_LOS_PLUS_REFLECTION, lag
        )
        value = synthesize_impulse(
            scene, FieldComponent.DOWNGOING_LOS_PLUS_REFLECTION, lag, spec
        )
        expected = los_impulse(
            conductor_medium, (0.3, 0.0, -0.8), (0.0, 0.0, 0.0)
        ) - los_impulse(conductor_medium, (0.3, 0.0, -0.8), (0.0, 0.0, 2.0 * d1))
        assert value == pytest.approx(expected, rel=1e-10)

    def test_vacuum_transmission_is_plain_propagation(self, vacuum_medium):
        scene = SceneConfig(
            medium=vacuum_medium, surface_z=0.6, source_z=0.0, receiver_z=1.4
        )
        lag = SpatialLag(0.2)
        spec = _auto_spec(scene, FieldComponent.TRANSMISSION, lag)
        value = synthesize_impulse(scene, FieldComponent.TRANSMISSION, lag, spec)
        expected = los_impulse(vacuum_medium, (0.2, 0.0, 1.4), (0.0, 0.0, 0.0))
        assert value == pytest.approx(expected, rel=1e-10)

    def test_combined_equals_sum_of_parts(self, conductor_medium):
        scene = SceneConfig(
            medium=conductor_medium, surface_z=1.2, source_z=0.0, receiver_z=0.7
        )
        lag = SpatialLag(0.15)
        spec = _auto_spec(scene, FieldComponent.LOS_PLUS_REFLECTION, lag)
        combined = synthesize_impulse(
            scene, FieldComponent.LOS_PLUS_REFLECTION, lag, spec
        )
        parts = synthesize_impulse(
            scene, FieldComponent.LOS_ONLY, lag, spec
        ) + synthesize_impulse(scene, FieldComponent.REFLECTION_ONLY, lag, spec)
        assert combined == pytest.approx(parts, rel=1e-12)

    def test_dielectric_on_axis_scales_like_normal_incidence(self):
        medium = Medium(frequency=FREQUENCY, material=CONCRETE)
        d1 = 1.0
        scene = SceneConfig(medium=medium, surface_z=d1, source_z=0.0, receiver_z=0.5)
        lag = SpatialLag(0.0)
        spec = _auto_spec(scene, FieldComponent.REFLECTION_ONLY, lag)
        value = synthesize_impulse(scene, FieldComponent.REFLECTION_ONLY, lag, spec)
        r_normal = complex(fresnel_reflection(medium, 0.0, 0.0)).real
        mirror_wave = los_impulse(medium, (0.0, 0.0, 0.5), (0.0, 0.0, 2.0 * d1))
        assert value == pytest.approx(r_normal * mirror_wave, rel=1e-3)


class TestMethodsAndTail:
    def test_generic_matches_bessel(self, conductor_medium):
        scene = SceneConfig(
            medium=conductor_medium, surface_z=1.2, source_z=0.0, receiver_z=0.6
        )
        lag = SpatialLag(0.21, 0.13)
        component = FieldComponent.LOS_PLUS_REFLECTION
        spec = _auto_spec(scene, component, lag)
        fast = synthesize_impulse(scene, component, lag, spec)
        slow = _trapezoid_synthesis(scene, component, [lag], spec)[0]
        assert slow == pytest.approx(fast, rel=1e-12)

    def test_generic_rotation_invariance(self, vacuum_medium):
        scene = _los_scene(vacuum_medium)
        spec = _auto_spec(scene, FieldComponent.LOS_ONLY, SpatialLag(0.5))
        a, b = _trapezoid_synthesis(
            scene, FieldComponent.LOS_ONLY,
            [SpatialLag(0.3, 0.4), SpatialLag(0.5, 0.0)], spec,
        )
        assert a == pytest.approx(b, rel=1e-12)


class TestLagBatches:
    @pytest.fixture
    def scene(self, conductor_medium):
        return SceneConfig(
            medium=conductor_medium, surface_z=1.2, source_z=0.0, receiver_z=0.6
        )

    def test_sequence_equals_scalar_calls(self, scene):
        lags = [
            SpatialLag(0.21, 0.13),
            SpatialLag(0.0),
            SpatialLag(-0.4, receiver_z=0.7),
            SpatialLag(0.05, -0.3, receiver_z=0.7, source_z=0.1),
            SpatialLag(0.21, 0.13),
        ]
        component = FieldComponent.LOS_PLUS_REFLECTION
        spec = _auto_spec(scene, component, SpatialLag(0.5))
        batch = synthesize_impulse(scene, component, lags, spec)
        assert isinstance(batch, np.ndarray) and batch.shape == (len(lags),)
        scalar = np.array([synthesize_impulse(scene, component, lag, spec) for lag in lags])
        assert np.max(np.abs(batch - scalar)) <= 1e-12 * np.max(np.abs(scalar))
        assert batch[0] == batch[-1]

    def test_each_lag_is_budgeted_on_its_own_planes(self, scene):
        """Every lag's oscillation budget is taken on its own pair of
        planes: the lower lag's, the largest, is the one a call's warning
        names, and each lag's convergence study starts at a quarter of its
        own budget, in whole panels."""
        component = FieldComponent.REFLECTION_ONLY
        lags = [SpatialLag(0.4), SpatialLag(0.1, receiver_z=0.2), SpatialLag(0.0)]
        lower = SceneConfig(medium=scene.medium, surface_z=1.2, source_z=0.0,
                            receiver_z=0.2)
        budgets = [_auto_spec(scene, component, SpatialLag(0.4)),
                   _auto_spec(lower, component, SpatialLag(0.1)),
                   _auto_spec(scene, component, SpatialLag(0.0))]
        needs = [b.n_alpha for b in budgets]
        assert _required_nodes(scene, component, lags).n_alpha == max(needs) == needs[1]
        with pytest.warns(UnderResolvedWarning, match=f"budget n_alpha={needs[1]}$"):
            synthesize_impulse(scene, component, lags, QuadratureSpec(64))
        for lag, need in zip(lags, needs):
            start = _nodes_used(need // 4)
            study = convergence_study(scene, component, lag, max_nodes=start)
            assert [row.n_alpha for row in study.rows] == [start]
        assert len({_nodes_used(need // 4) for need in needs}) == len(needs)

    def test_single_lag_returns_a_complex(self, scene):
        lag = SpatialLag(0.1)
        spec = _auto_spec(scene, FieldComponent.REFLECTION_ONLY, lag)
        value = synthesize_impulse(scene, FieldComponent.REFLECTION_ONLY, lag, spec)
        assert type(value) is complex
        batch = synthesize_impulse(scene, FieldComponent.REFLECTION_ONLY, [lag], spec)
        assert batch.shape == (1,)

    def test_generic_sequence_equals_bessel(self, scene):
        lags = [SpatialLag(0.21, 0.13), SpatialLag(0.1, receiver_z=0.7)]
        component = FieldComponent.REFLECTION_ONLY
        spec = _auto_spec(scene, component, SpatialLag(0.25))
        fast = synthesize_impulse(scene, component, lags, spec)
        raised = dataclasses.replace(scene, receiver_z=0.7)
        slow = [_trapezoid_synthesis(scene, component, [lags[0]], spec)[0],
                _trapezoid_synthesis(raised, component, [SpatialLag(0.1)], spec)[0]]
        assert np.allclose(slow, fast, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("x", [0.07, 0.33])
    def test_mirror_and_swap_symmetry(self, scene, x):
        """h(x, 0) = h(-x, 0) = h(0, x): the response depends on the
        transverse distance only, which matrix assembly relies on.  The
        azimuthal trapezoid checks it without assuming the Bessel form."""
        component = FieldComponent.REFLECTION_ONLY
        spec = _auto_spec(scene, component, SpatialLag(x))
        lags = [SpatialLag(x, 0.0), SpatialLag(-x, 0.0), SpatialLag(0.0, x)]
        fast = synthesize_impulse(scene, component, lags, spec)
        assert fast[0] == fast[1] == fast[2]
        slow = _trapezoid_synthesis(scene, component, lags, spec)
        assert np.allclose(slow, fast[0], rtol=1e-12, atol=0.0)


class TestWarningsAndOverrides:
    def test_under_resolved_warning(self, vacuum_medium):
        scene = _los_scene(vacuum_medium, dz=2.0)
        with pytest.warns(UnderResolvedWarning):
            synthesize_impulse(
                scene, FieldComponent.LOS_ONLY, SpatialLag(0.0),
                QuadratureSpec(n_alpha=64),
            )

    def test_one_warning_per_call_names_the_largest_budget(self, vacuum_medium):
        """A call over three pairs of planes warns once, at the largest of
        their budgets, not once per pair."""
        scene = SceneConfig(medium=vacuum_medium, surface_z=3.0, source_z=0.0, receiver_z=1.0)
        lags = [SpatialLag(0.1), SpatialLag(0.2, receiver_z=2.0), SpatialLag(0.3, receiver_z=1.5)]
        needed = _required_nodes(scene, FieldComponent.LOS_ONLY, lags).n_alpha
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            synthesize_impulse(scene, FieldComponent.LOS_ONLY, lags, QuadratureSpec(n_alpha=64))
        (warning,) = [w for w in caught if issubclass(w.category, UnderResolvedWarning)]
        assert str(warning.message).endswith(f"budget n_alpha={needed}")
        assert warning.filename == __file__

    def test_adequate_spec_is_silent(self, vacuum_medium):
        scene = _los_scene(vacuum_medium)
        lag = SpatialLag(0.1)
        spec = _auto_spec(scene, FieldComponent.LOS_ONLY, lag)
        with warnings.catch_warnings():
            warnings.simplefilter("error", UnderResolvedWarning)
            synthesize_impulse(scene, FieldComponent.LOS_ONLY, lag, spec)

    def test_plane_override_changes_geometry(self, vacuum_medium):
        scene = _los_scene(vacuum_medium)
        spec = _auto_spec(scene, FieldComponent.LOS_ONLY, SpatialLag(0.0))
        moved = synthesize_impulse(
            scene, FieldComponent.LOS_ONLY, SpatialLag(0.0, receiver_z=0.8), spec
        )
        expected = los_impulse(vacuum_medium, (0.0, 0.0, 0.8), (0.0, 0.0, 0.0))
        assert moved == pytest.approx(expected, rel=1e-8)

    def test_plane_override_is_revalidated(self, vacuum_medium):
        scene = _los_scene(vacuum_medium)
        spec = QuadratureSpec(n_alpha=64)
        with pytest.raises(SceneError):
            synthesize_impulse(
                scene,
                FieldComponent.LOS_ONLY,
                SpatialLag(0.0, receiver_z=scene.surface_z + 0.5),
                spec,
            )


class TestConvergenceStudy:
    def test_converges_to_closed_form(self, vacuum_medium):
        scene = _los_scene(vacuum_medium)
        study = convergence_study(
            scene, FieldComponent.LOS_ONLY, SpatialLag(0.2), rel_tol=1e-9
        )
        assert study.converged
        assert study.rows[0].delta is None
        assert all(row.delta is not None for row in study.rows[1:])
        expected = los_impulse(vacuum_medium, (0.2, 0.0, 1.0), (0.0, 0.0, 0.0))
        assert study.value == pytest.approx(expected, rel=1e-7)
        assert study.rows[-1].delta < 1e-9

    def test_node_counts_double(self, vacuum_medium):
        scene = _los_scene(vacuum_medium)
        study = convergence_study(
            scene, FieldComponent.LOS_ONLY, SpatialLag(0.0), rel_tol=1e-10
        )
        counts = [row.n_alpha for row in study.rows]
        assert counts == sorted(counts)
        for before, after in zip(counts, counts[1:]):
            assert after == 2 * before

    def test_budget_cap_reported(self, vacuum_medium):
        scene = _los_scene(vacuum_medium)
        study = convergence_study(
            scene,
            FieldComponent.LOS_ONLY,
            SpatialLag(0.0),
            rel_tol=1e-30,
            max_nodes=700,
        )
        assert not study.converged
        assert len(study.rows) >= 2
        assert study.rows[-1].n_alpha <= 1400

    def test_real_segment_never_thins(self):
        """The bent path's real segment is sized from ``n_alpha``, so each
        doubling adds nodes there too; starting at a quarter of the budget,
        the trace shows the under-resolved regime, then converges."""
        free = Medium(300e9, VACUUM)
        scene = _los_scene(free, dz=20.0)
        component, lag = FieldComponent.LOS_ONLY, SpatialLag(1.0)
        study = convergence_study(scene, component, lag, rel_tol=1e-10)
        paths = [_path([scene], component, QuadratureSpec(row.n_alpha), row.n_alpha,
                       np.array([lag.x]), per_lag=False) for row in study.rows]
        assert not any(path.straight for path in paths)
        segments = [path.panels for path in paths]
        assert all(before < after for before, after in zip(segments, segments[1:]))
        assert study.converged and len(study.rows) >= 3
        assert study.rows[1].delta > 1e-6
        expected = los_impulse(free, (1.0, 0.0, 20.0), (0.0, 0.0, 0.0))
        assert abs(study.value - expected) <= 1e-9 * abs(expected)

    def test_far_lag_starts_at_the_cap(self, vacuum_medium, monkeypatch):
        """A 10 km lag's quarter budget, 2.9 million nodes at 57.5 GHz, lies
        past a 100,000-node cap: the study starts at the cap, in whole
        panels, and evaluates that one count, the straight path's disk of
        100,032 nodes and its branch cut, sized by the lag alone."""
        scene = _los_scene(vacuum_medium, dz=0.3)
        counter = _count_nodes(monkeypatch)
        study = convergence_study(scene, FieldComponent.LOS_ONLY, SpatialLag(1e4),
                                  max_nodes=100_000)
        assert [row.n_alpha for row in study.rows] == [100_032]
        assert not study.converged
        path = _path([scene], FieldComponent.LOS_ONLY, QuadratureSpec(100_032), 100_032,
                     np.array([1e4]), per_lag=False)
        assert path.straight
        assert counter["nodes"] == 100_032 + _nodes_used(path.leg_nodes)

    def test_tiny_cap_still_evaluates_once(self, vacuum_medium):
        scene = _los_scene(vacuum_medium)
        study = convergence_study(
            scene, FieldComponent.LOS_ONLY, SpatialLag(0.0), max_nodes=1
        )
        assert len(study.rows) == 1
        assert not study.converged
        assert study.rows[0].delta is None


class TestSceneBatches:
    """Scenes that differ only in their material share one synthesis."""

    @pytest.fixture
    def scenes(self):
        return [
            SceneConfig(medium=Medium(FREQUENCY, material_by_name(name)),
                        surface_z=1.2, source_z=0.0, receiver_z=0.6)
            for name in ExperimentConfig().materials
        ]

    def test_sequence_equals_per_scene_calls(self, scenes):
        lags = [
            SpatialLag(0.21, 0.13),
            SpatialLag(0.0),
            SpatialLag(-0.4, receiver_z=0.7),
            SpatialLag(0.05, -0.3, receiver_z=0.7, source_z=0.1),
        ]
        component = FieldComponent.REFLECTION_ONLY
        spec = _auto_spec(scenes[0], component, SpatialLag(0.5))
        batch = synthesize_impulse(scenes, component, lags, spec)
        assert batch.shape == (len(scenes), len(lags))
        for scene, row in zip(scenes, batch):
            single = synthesize_impulse(scene, component, lags, spec)
            assert np.max(np.abs(row - single)) <= 1e-12 * np.max(np.abs(single))
        one_lag = synthesize_impulse(scenes, component, lags[0], spec)
        assert one_lag.shape == (len(scenes),)
        assert np.max(np.abs(one_lag - batch[:, 0])) <= 1e-12 * np.max(np.abs(one_lag))

    def test_conductor_column_keeps_the_image_solution(self, scenes):
        component = FieldComponent.REFLECTION_ONLY
        lag = SpatialLag(0.3)
        spec = _auto_spec(scenes[0], component, lag)
        values = synthesize_impulse(scenes, component, lag, spec)
        assert scenes[0].medium.material is PERFECT_CONDUCTOR
        vacuum = Medium(FREQUENCY, VACUUM)
        expected = -los_impulse(vacuum, (0.3, 0.0, 0.6), (0.0, 0.0, 2.4))
        assert values[0] == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize("change", [
        {"frequency": 140e9},
        {"surface_z": 1.3},
        {"source_z": 0.1},
        {"receiver_z": 0.7},
        {"source_radius": 0.05},
    ], ids=lambda change: next(iter(change)))
    def test_scenes_differing_beyond_material_are_rejected(self, scenes, change):
        other = scenes[1]
        if "frequency" in change:
            other = dataclasses.replace(
                other, medium=Medium(change["frequency"], other.medium.material),
            )
        else:
            other = dataclasses.replace(other, **change)
        lag = SpatialLag(0.1)
        spec = _auto_spec(scenes[0], FieldComponent.REFLECTION_ONLY, lag)
        with pytest.raises(ValueError, match="differ only in their material"):
            synthesize_impulse([scenes[0], other], FieldComponent.REFLECTION_ONLY,
                               lag, spec)

    def test_empty_scene_sequence_rejected(self, scenes):
        lag = SpatialLag(0.1)
        spec = _auto_spec(scenes[0], FieldComponent.REFLECTION_ONLY, lag)
        with pytest.raises(ValueError, match="at least one scene"):
            synthesize_impulse([], FieldComponent.REFLECTION_ONLY, lag, spec)


class TestGeometricOpticsLimit:
    """On the surface normal a dielectric reflects the conductor's image
    wave scaled by -R(0), up to a stationary-phase correction of order
    1/(kappa1 span) that fades as the reflected path grows."""

    @staticmethod
    def _error_and_bound(material, d1, receiver_z):
        scene = SceneConfig(medium=Medium(FREQUENCY, material), surface_z=d1,
                            source_z=0.0, receiver_z=receiver_z)
        component = FieldComponent.REFLECTION_ONLY
        lag = SpatialLag(0.0)
        value = synthesize_impulse(scene, component, lag,
                                   _auto_spec(scene, component, lag))
        vacuum = Medium(FREQUENCY, VACUUM)
        conductor = -los_impulse(vacuum, (0.0, 0.0, receiver_z), (0.0, 0.0, 2.0 * d1))
        mu, n = material.permeability_ratio, material.refractive_index
        r_normal = (mu - n) / (mu + n)
        span = oscillation_span(scene, component)
        return abs(value / conductor + r_normal), 1.0 / (scene.medium.kappa1 * span)

    @pytest.mark.parametrize("material", [CONCRETE, FLOOR_BOARD, PLASTER_BOARD],
                             ids=lambda material: material.name)
    def test_dielectric_tends_to_the_scaled_image(self, material):
        errors = []
        for d1, receiver_z in ((1.0, 0.5), (15.0, 10.0)):
            error, bound = self._error_and_bound(material, d1, receiver_z)
            assert error <= bound
            errors.append(error)
        assert errors[1] < errors[0]


# C in the oracle's bound C / (kappa1 R)^2: the measured worst over the
# grids below (0.74, 1.28 and 3.27, at 45 degrees), rounded up.  The
# residual is the oracle's next term: it scales as (kappa1 R)^-2 to three
# digits across 57.5-300 GHz and 0.5-5 m.
_NEXT_ORDER = {CONCRETE: 1.0, FLOOR_BOARD: 1.6, PLASTER_BOARD: 4.0}


class TestDielectricImageOracle:
    """The dielectric image against the reflected spherical wave to first
    order in 1 / (kappa1 R), :func:`dielectric_image_impulse`, which shares
    no code with the synthesis: the two agree to the oracle's own
    (kappa1 R)^-2 residual, while geometric optics alone misses by
    ~1 / (kappa1 R)."""

    @staticmethod
    def _check(medium, synthesized, oracle, length, rho):
        """Relative errors within the oracle's bound, which geometric
        optics alone, V times the mirrored wave, exceeds everywhere."""
        material = medium.material
        kappa_r = medium.kappa1 * np.hypot(length, rho)
        bound = _NEXT_ORDER[material] / kappa_r ** 2
        error = np.abs(synthesized - oracle) / np.abs(oracle)
        assert np.all(error <= bound), np.max(error / bound)
        v, n = np.vectorize(_reflection_series)(material.refractive_index,
                                                material.permeability_ratio,
                                                np.arctan2(rho, length))
        optics = oracle * v / (v - 1j * n / kappa_r)
        assert np.all(np.abs(synthesized - optics) / np.abs(optics) > bound)

    @pytest.mark.parametrize("material", list(_NEXT_ORDER), ids=lambda material: material.name)
    @pytest.mark.parametrize("frequency", [57.5e9, 140e9, 300e9],
                             ids=["57.5GHz", "140GHz", "300GHz"])
    def test_single_lags(self, frequency, material):
        """Image paths of 0.5, 2 and 5 m, lags from 0 to three times the
        path: the per-lag path and, at lag 0, the shared one."""
        medium = Medium(frequency, material)
        component = FieldComponent.REFLECTION_ONLY
        for span in (0.5, 2.0, 5.0):
            scene = _image_scene(medium, span)
            for ratio in (0.0, 0.5, 1.0, 2.0, 3.0):
                rho = ratio * span
                lag = SpatialLag(rho)
                value = synthesize_impulse(scene, component, lag,
                                           _auto_spec(scene, component, lag))
                receiver = (rho, 0.0, scene.receiver_z)
                oracle = dielectric_image_impulse(medium, receiver, (0.0, 0.0, 0.0),
                                                  scene.surface_z)
                self._check(medium, value, oracle, span, rho)

    def test_fig4_matrices_at_300ghz(self):
        """fig4's reflected channels at 300 GHz, entry by entry."""
        config = ExperimentConfig(frequency_ghz=300.0, antennas=16)
        scenes = [SceneConfig(medium=Medium(config.frequency_hz, material),
                              surface_z=config.d1_m, source_z=0.0, receiver_z=config.range_m)
                  for material in _NEXT_ORDER]
        spacing = spacing_rayleigh(scenes[0].medium.wavelength, config.equivalent_range_m, 16)
        tx = ArrayLayout.along_x(16, spacing, 0.0)
        rx = ArrayLayout.along_x(16, spacing, config.range_m)
        channels = build_channel_matrices(scenes, tx, rx, FieldComponent.REFLECTION_ONLY)
        length = 2.0 * config.d1_m - config.range_m
        rho = rx.positions[:, None, 0] - tx.positions[None, :, 0]
        for scene, channel in zip(scenes, channels):
            oracle = np.array([[dielectric_image_impulse(scene.medium, r, t, config.d1_m)
                                for t in tx.positions] for r in rx.positions])
            self._check(scene.medium, channel.entries, oracle, length, rho)


def _count_nodes(monkeypatch):
    """Count the k1z samples handed to ``spectrum.propagating_factor``, the
    way the benchmark's tracer counts nodes, and to
    ``spectrum.part_coefficient``, which the per-lag saddle path uses."""
    counter = {"nodes": 0}

    def counting(original):
        def count(scene, component, k1z, *args):
            counter["nodes"] += int(np.size(k1z))
            return original(scene, component, k1z, *args)
        return count

    for name in ("propagating_factor", "part_coefficient"):
        monkeypatch.setattr(spectrum, name, counting(getattr(spectrum, name)))
    return counter


def _count_lag_sums(monkeypatch):
    """Count the lags synthesized on their own per-lag paths."""
    counter = {"lags": 0}
    original = quadrature._lag_sum

    def counting(*args):
        counter["lags"] += 1
        return original(*args)

    monkeypatch.setattr(quadrature, "_lag_sum", counting)
    return counter


def _image_scene(medium, span):
    """Reflected path of length ``span`` on the surface normal, laid out as
    in the ``impulse_validate`` experiment."""
    d1 = max(0.75 * span, 10.0 * medium.wavelength)
    return SceneConfig(medium=medium, surface_z=d1, source_z=0.0,
                       receiver_z=2.0 * d1 - span)


def _split(x):
    c = 134217729.0 * x  # 2^27 + 1: Veltkamp split into 26-bit halves
    hi = c - (c - x)
    return hi, x - hi


def _exact_wave(kappa, length, *lag):
    """e^{i kappa R}, R = hypot(length, *lag), its phase rounded once: R is
    kept as hi + lo from 40-digit decimal arithmetic, and the product
    kappa R_hi as the Dekker two-product hi + lo."""
    with decimal.localcontext() as context:
        context.prec = 40
        exact = sum(decimal.Decimal(v) ** 2 for v in (length, *lag)).sqrt()
        r_hi = float(exact)
        r_lo = float(exact - decimal.Decimal(r_hi))
    hi = kappa * r_hi
    (kh, kl), (lh, ll) = _split(kappa), _split(r_hi)
    lo = ((kh * lh - hi) + kh * ll + kl * lh) + kl * ll + kappa * r_lo
    return cmath.exp(1j * hi) * cmath.exp(1j * lo)


_ROOM_SCALE = {
    FieldComponent.LOS_ONLY: (15.0, 10.0),
    FieldComponent.REFLECTION_ONLY: (15.0, 10.0),
    FieldComponent.LOS_PLUS_REFLECTION: (15.0, 10.0),
    FieldComponent.DOWNGOING_LOS_PLUS_REFLECTION: (15.0, -5.0),
    FieldComponent.TRANSMISSION: (10.0, 15.0),
}


class TestBentPath:
    """Past the specular angle the path leaves the real polar axis; the
    integrand is analytic between the paths, so the value is the same."""

    @pytest.mark.parametrize("reflected", [False, True], ids=["los", "conductor"])
    @pytest.mark.parametrize("frequency", [140e9, 300e9], ids=["140GHz", "300GHz"])
    def test_electrically_large_against_closed_form(self, frequency, reflected):
        free = Medium(frequency, VACUUM)
        span = 20.0
        for lag_x in (0.0, 0.3, 1.0):
            if reflected:
                scene = _image_scene(Medium(frequency, PERFECT_CONDUCTOR), span)
                component = FieldComponent.REFLECTION_ONLY
                expected = -los_impulse(free, (lag_x, 0.0, scene.receiver_z),
                                        (0.0, 0.0, 2.0 * scene.surface_z))
            else:
                scene = _los_scene(free, dz=span)
                component = FieldComponent.LOS_ONLY
                expected = los_impulse(free, (lag_x, 0.0, span), (0.0, 0.0, 0.0))
            lag = SpatialLag(lag_x)
            spec = _auto_spec(scene, component, lag)
            assert not _path([scene], component, spec, spec.n_alpha, np.array([lag_x]),
                             per_lag=False).straight
            value = synthesize_impulse(scene, component, lag, spec)
            assert abs(value - expected) <= 1e-9 * abs(expected)

    @pytest.mark.parametrize("material", [CONCRETE, PERFECT_CONDUCTOR],
                             ids=lambda material: material.name)
    @pytest.mark.parametrize("component", list(_ROOM_SCALE), ids=lambda c: c.value)
    def test_room_scale_matches_the_straight_path(self, component, material):
        surface_z, receiver_z = _ROOM_SCALE[component]
        scene = SceneConfig(medium=Medium(FREQUENCY, material), surface_z=surface_z,
                            source_z=0.0, receiver_z=receiver_z)
        lags = [SpatialLag(0.0), SpatialLag(0.3), SpatialLag(1.0)]
        spec = _required_nodes(scene, component, lags)
        assert not any(_path([scene], part, part_spec, part_spec.n_alpha, np.array([1.0]),
                             per_lag=False).straight
                       for part, part_spec in _part_specs([scene], component, spec))
        bent = _synthesize_on_planes([scene], component, lags, spec)[0][0]
        straight = _synthesize_on_planes([scene], component, lags, spec, bend=False)[0][0]
        if component is FieldComponent.TRANSMISSION and material.is_conductor:
            assert np.all(bent == 0.0) and np.all(straight == 0.0)
            return
        assert np.max(np.abs(bent - straight)) <= 1e-9 * np.max(np.abs(straight))

    @pytest.mark.parametrize("reflected", [False, True], ids=["los", "conductor"])
    @pytest.mark.parametrize("frequency", [140e9, 300e9], ids=["140GHz", "300GHz"])
    def test_lags_as_long_as_the_span(self, frequency, reflected):
        """Near the specular angle of a lag comparable to the span, J0 grows
        steeply along the leg and its decaying half falls off fast: the leg
        stays finite and resolved for every lag of the call.  The lag-0
        entry, resolved far past its own budget, sits near the disk rule's
        cancellation floor (~6e-10 at 300 GHz)."""
        free = Medium(frequency, VACUUM)
        span = 20.0
        lags = [SpatialLag(x) for x in (0.0, 5.0, 10.0, 15.0, 20.0)]
        if reflected:
            scene = _image_scene(Medium(frequency, PERFECT_CONDUCTOR), span)
            component = FieldComponent.REFLECTION_ONLY
            expected = [-los_impulse(free, (lag.x, 0.0, scene.receiver_z),
                                     (0.0, 0.0, 2.0 * scene.surface_z)) for lag in lags]
        else:
            scene = _los_scene(free, dz=span)
            component = FieldComponent.LOS_ONLY
            expected = [los_impulse(free, (lag.x, 0.0, span), (0.0, 0.0, 0.0))
                        for lag in lags]
        spec = _required_nodes(scene, component, lags)
        assert not _path([scene], component, spec, spec.n_alpha, np.array([20.0]),
                         per_lag=False).straight
        values = synthesize_impulse(scene, component, lags, spec)
        assert np.all(np.isfinite(values))
        assert np.max(np.abs(values - expected) / np.abs(expected)) <= 2e-9

    def test_resolved_lags_share_one_path(self):
        """The path depends on the planes, the part and the budget, not on
        which resolved lags share the call."""
        scene = _image_scene(Medium(300e9, PERFECT_CONDUCTOR), 20.0)
        component = FieldComponent.REFLECTION_ONLY
        spec = _auto_spec(scene, component, SpatialLag(1.0))
        paths = {_path([scene], component, spec, spec.n_alpha, np.array([rho]), per_lag=False)
                 for rho in (0.0, 0.3, 1.0)}
        assert len(paths) == 1 and not paths.pop().straight

    @pytest.mark.parametrize("reflected", [False, True], ids=["los", "conductor"])
    @pytest.mark.parametrize("span", [4.5, 20.0], ids=["4.5m", "20m"])
    @pytest.mark.parametrize("frequency", [57.5e9, 300e9], ids=["57.5GHz", "300GHz"])
    def test_lag_zero_carries_the_exact_phase(self, frequency, span, reflected):
        """On the surface normal the field is -i kappa1 eta / (4 pi)
        e^{i kappa1 L} / L, sign-flipped for the image.  The bent path
        carries kappa1 L exactly, so it matches that phase, exactly
        rounded here by a two-product, to far below kappa1 L 2^-53."""
        if reflected:
            scene = _image_scene(Medium(frequency, PERFECT_CONDUCTOR), span)
            component = FieldComponent.REFLECTION_ONLY
            length, sign = 2.0 * scene.surface_z - scene.receiver_z, -1.0
        else:
            scene = _los_scene(Medium(frequency, VACUUM), dz=span)
            component = FieldComponent.LOS_ONLY
            length, sign = span, 1.0
        kappa1 = scene.medium.kappa1
        expected = (sign * -1j * kappa1 * FREE_SPACE_IMPEDANCE / (4.0 * math.pi)
                    * _exact_wave(kappa1, length) / length)
        lag = SpatialLag(0.0)
        spec = _auto_spec(scene, component, lag)
        assert not _path([scene], component, spec, spec.n_alpha, np.array([0.0]),
                         per_lag=False).straight
        value = synthesize_impulse(scene, component, lag, spec)
        assert abs(value - expected) <= 2e-13 * abs(expected)


class TestNodeCounts:
    """The speed property, pinned by the nodes evaluated rather than time."""

    def test_electrically_large_call_bends(self, monkeypatch):
        scene = _image_scene(Medium(300e9, PERFECT_CONDUCTOR), 20.0)
        component = FieldComponent.REFLECTION_ONLY
        lag = SpatialLag(0.3)
        spec = _auto_spec(scene, component, lag)
        counter = _count_nodes(monkeypatch)
        _synthesize_on_planes([scene], component, [lag], spec, bend=False)
        straight, counter["nodes"] = counter["nodes"], 0
        synthesize_impulse(scene, component, lag, spec)
        assert straight > _nodes_used(spec.n_alpha)
        assert counter["nodes"] <= straight / 10

    def test_grazing_call_keeps_the_straight_path(self, monkeypatch):
        medium = Medium(300e9, PERFECT_CONDUCTOR)
        scene = _image_scene(medium, 10.0 * medium.wavelength)
        component = FieldComponent.REFLECTION_ONLY
        lag = SpatialLag(1.0)
        spec = _auto_spec(scene, component, lag)
        assert _path([scene], component, spec, spec.n_alpha, np.array([1.0]),
                     per_lag=False).straight
        rules = _shared_rules(scene, component, spec, 1.0)
        assert not any(np.iscomplexobj(krho) for krho, _ in rules)
        counter = _count_nodes(monkeypatch)
        _synthesize_on_planes([scene], component, [lag], spec, bend=False)
        straight, counter["nodes"] = counter["nodes"], 0
        _synthesize_on_planes([scene], component, [lag], spec, per_lag=False)
        assert counter["nodes"] == straight

    @pytest.mark.parametrize(("frequency", "surface_z", "receiver_z", "lag_x", "most", "tol"), [
        (57.5e9, 1.2, 0.6, 0.25, 1600, 1e-12),
        (300e9, 15.0, 10.0, 0.5, 1300, 1e-11),
    ], ids=["57.5GHz", "300GHz"])
    def test_compound_call_bends_each_part(self, monkeypatch, frequency, surface_z,
                                           receiver_z, lag_x, most, tol):
        """The direct and reflected parts run on their own paths, each
        resolving the component's lag: at 57.5 GHz the reflected part bends
        where one path sized for both terms would run the 37-panel straight
        disk (2,432 nodes), and at 300 GHz the direct part does not take
        the reflected span's node count, which would straighten its path
        (~66k nodes)."""
        free = Medium(frequency, VACUUM)
        scene = SceneConfig(medium=Medium(frequency, PERFECT_CONDUCTOR), surface_z=surface_z,
                            source_z=0.0, receiver_z=receiver_z)
        component, lag = FieldComponent.LOS_PLUS_REFLECTION, SpatialLag(lag_x)
        spec = _auto_spec(scene, component, lag)
        counter = _count_nodes(monkeypatch)
        value = synthesize_impulse(scene, component, lag, spec)
        expected = (los_impulse(free, (lag_x, 0.0, receiver_z), (0.0, 0.0, 0.0))
                    - los_impulse(free, (lag_x, 0.0, receiver_z), (0.0, 0.0, 2.0 * surface_z)))
        assert counter["nodes"] <= most
        assert abs(value - expected) <= tol * abs(expected)

    def test_real_segment_sized_by_its_phase_rate(self, monkeypatch):
        """The real segment [0, a0] is sampled at its own largest phase
        rate, kappa1 (span sin a0 + rho_b), not at the whole disk's: at
        300 GHz over a 20 m reflected span the call evaluates a few
        hundred nodes, where the disk's spacing would need ~3,100."""
        scene = SceneConfig(medium=Medium(300e9, PERFECT_CONDUCTOR), surface_z=15.0,
                            source_z=0.0, receiver_z=10.0)
        component = FieldComponent.REFLECTION_ONLY
        lags = [SpatialLag(0.0), SpatialLag(0.375)]
        spec = _required_nodes(scene, component, lags)
        counter = _count_nodes(monkeypatch)
        synthesize_impulse(scene, component, lags, spec)
        assert counter["nodes"] <= 800


class TestNodeBlocks:
    """The shared path's rules are taken in blocks of whole panels, at most
    ``_BESSEL_BLOCK_SCALARS`` Bessel factors each: the block size bounds
    memory and changes no value beyond round-off."""

    @pytest.mark.parametrize("block_scalars", [1, 1 << 40], ids=["one-panel", "one-block"])
    def test_block_size_leaves_the_matrix_unchanged(self, monkeypatch, block_scalars):
        """fig4's 64-element LOS channel at 300 GHz, at the spacing of its
        reflected arrays: its 64 lags run in 3 runs, on real segments of
        11, 21 and 33 panels, each with a one-panel leg, and by default
        each piece of each run is one block."""
        config = ExperimentConfig(frequency_ghz=300.0, antennas=64)
        scene = SceneConfig(medium=Medium(config.frequency_hz, VACUUM), surface_z=config.d1_m,
                            source_z=0.0, receiver_z=config.range_m)
        spacing = spacing_rayleigh(scene.medium.wavelength, config.equivalent_range_m, 64)
        tx = ArrayLayout.along_x(64, spacing, 0.0)
        rx = ArrayLayout.along_x(64, spacing, config.range_m)
        blocks = []
        original = quadrature._coefficients

        def counting(scenes, part, k1z, *args):
            blocks.append(k1z.size // _PANEL)
            return original(scenes, part, k1z, *args)

        monkeypatch.setattr(quadrature, "_coefficients", counting)
        default = build_channel_matrix(scene, tx, rx, FieldComponent.LOS_ONLY).entries
        assert blocks == [11, 1, 21, 1, 33, 1]
        blocks.clear()
        monkeypatch.setattr(quadrature, "_BESSEL_BLOCK_SCALARS", block_scalars)
        entries = build_channel_matrix(scene, tx, rx, FieldComponent.LOS_ONLY).entries
        assert blocks == ([1] * 68 if block_scalars == 1 else [11, 1, 21, 1, 33, 1])
        assert np.max(np.abs(entries - default)) <= 1e-13 * np.max(np.abs(default))


_RUN_SCENES = {
    "los_57.5GHz": ([SceneConfig(medium=Medium(57.5e9, VACUUM), surface_z=11.0, source_z=0.0,
                                 receiver_z=10.0)], FieldComponent.LOS_ONLY),
    "materials_300GHz": ([SceneConfig(medium=Medium(300e9, material), surface_z=15.0,
                                      source_z=0.0, receiver_z=10.0)
                          for material in (PERFECT_CONDUCTOR, CONCRETE)],
                         FieldComponent.REFLECTION_ONLY),
    "compound_140GHz": ([SceneConfig(medium=Medium(140e9, PLASTER_BOARD), surface_z=1.2,
                                     source_z=0.0, receiver_z=0.6)],
                        FieldComponent.LOS_PLUS_REFLECTION),
}


def _rate(plan):
    return sum(path.cost for _, path in plan)


class TestRuns:
    """The lags of a call cut into runs on shared paths by their price."""

    @settings(max_examples=30, deadline=None)
    @given(case=st.sampled_from(sorted(_RUN_SCENES)),
           rho=st.lists(st.floats(0.0, 3.0), min_size=2, max_size=60),
           n_alpha=st.sampled_from([None, 4096, 100_000]))
    def test_runs_cover_the_lags_on_their_largest_lags_plans(self, case, rho, n_alpha):
        """Runs cover the sorted lags once, in order; each runs on the plan
        of its largest lag; and their price, lags times the summed cost of
        their paths plus ``_RUN_COST`` each, is at most one run's."""
        scenes, component = _RUN_SCENES[case]
        rho = np.sort(np.array(rho))
        spec = None if n_alpha is None else QuadratureSpec(n_alpha)
        needs = quadrature._budgets(scenes, component, rho)
        runs = quadrature._runs(scenes, component, rho, needs, spec)
        stops = [stop for stop, _ in runs]
        assert stops == sorted(set(stops)) and stops[0] > 0 and stops[-1] == rho.size
        price = 0
        for start, (stop, plan) in zip([0, *stops], runs):
            assert plan == quadrature._plan(scenes, component, rho[stop - 1:stop],
                                            needs[stop - 1], spec, per_lag=False)
            assert not any(isinstance(path, quadrature._LagPath) for _, path in plan)
            price += (stop - start) * _rate(plan) + quadrature._RUN_COST
        assert price <= rho.size * _rate(runs[-1][1]) + quadrature._RUN_COST

    @pytest.mark.parametrize("lag_x", [0.0, 0.3, 1.0])
    def test_single_lag_call_plans_once(self, monkeypatch, lag_x):
        """A single-lag call is one run: it plans once and prices nothing.
        Two lags price two plans, the smaller's and the larger's, and
        synthesize on those."""
        scene = _image_scene(Medium(300e9, PERFECT_CONDUCTOR), 20.0)
        component = FieldComponent.REFLECTION_ONLY
        lag = SpatialLag(lag_x)
        spec = _auto_spec(scene, component, SpatialLag(2.0))
        plans = []
        plan, runs = quadrature._plan, quadrature._runs

        def counted(*args, **kwargs):
            plans.append(args)
            return plan(*args, **kwargs)

        def unpriced(*args, **kwargs):
            raise AssertionError("a single lag was cut into runs")

        monkeypatch.setattr(quadrature, "_plan", counted)
        monkeypatch.setattr(quadrature, "_runs", unpriced)
        synthesize_impulse(scene, component, lag, spec)
        assert len(plans) == 1
        monkeypatch.setattr(quadrature, "_runs", runs)
        synthesize_impulse(scene, component, [lag, SpatialLag(2.0)], spec)
        assert len(plans) == 3

    def test_unsorted_lags_land_in_their_places(self):
        """A call's lags are sorted for its runs and returned in the order
        given: the reversed call is the call reversed."""
        scenes, component = _RUN_SCENES["los_57.5GHz"]
        lags = [SpatialLag(0.001 * k * k) for k in range(40)]
        spec = _required_nodes(scenes[0], component, lags)
        forward = synthesize_impulse(scenes[0], component, lags, spec)
        rho = np.array([lag.x for lag in lags])
        assert len(quadrature._runs(scenes, component, rho,
                                    quadrature._budgets(scenes, component, rho), spec)) > 1
        backward = synthesize_impulse(scenes[0], component, lags[::-1], spec)
        assert np.array_equal(forward, backward[::-1])


# J0 to 30 digits at the double arguments, from tests/reference/make_j0_reference.py: far
# arguments, near ones on vertical legs descending from real starts, and scattered near ones
_J0_REFERENCE = [  # (Re x, Im x, Re J0(x), Im J0(x))
    (18.0, 0.0, -0.013355805721984110885, 0.0),
    (12.75, -12.75, 31786.274345549477556, -6913.7535703456302068),
    (0.0, -18.0, 6218412.4207810029499, 0.0),
    (18.25, -2.0, 0.1609197295149081913, -0.65716598898101497482),
    (25.0, -7.5, 100.79465020846115692, -99.124813733220009518),
    (40.0, -30.0, -157808141422.22007995, 582834056164.05285884),
    (100.0, 0.0, 0.019985850304223122424, 0.0),
    (100.0, -60.0, 2.1110272695376900746e+24, -3.6553845513343198352e+24),
    (5.0, -99.0, 1.0288486412470044725e+41, -3.8318010721512636736e+41),
    (300.0, -1.0, -0.051319847596182422022, -0.037494423855087705726),
    (250.0, -250.0, -1.1847392344209746358e+106, -7.8620507112186507721e+106),
    (50.0, -590.0, 2.6769525503522620581e+254, -8.5093053604983977559e+253),
    (0.0, -600.0, 6.1463054039368448035e+258, -4.315736253857075822e-263),
    (600.0, -600.0, -4.6822183756617645782e+258, 2.1871624848181516725e+258),
    (1000.0, -0.25, 0.025565163484307587646, 0.0011944947535348062035),
    (1234.5678, -345.678, -1.1127519688066040556e+148, 9.9002676886555851274e+147),
    (1000.0, -599.0, 1.4548773867877367462e+258, 7.169940734406181788e+257),
    (3000.0, -20.0, -1900087.4004534881717, 2979425.0101713117036),
    (3000.0, -600.0, -1.675098723609099232e+258, 2.1447067295040384128e+258),
    (10000.0, 0.0, -0.0070961603533888014773, 0.0),
    (9981.0, -600.0, -1.2463945410415502941e+258, 8.4404131707761926698e+257),
]

_J0_NEAR_LEGS = [  # (Re x, Im x, Re J0(x), Im J0(x))
    (0.5, 0.0, 0.93846980724081290423, 0.0),
    (0.5, -0.25, 0.95271009715390977309, 0.061039853225906519842),
    (0.5, -1.0, 1.1798566304030780178, 0.27372678559101118964),
    (0.5, -2.5, 3.0093290589948938294, 1.2170101400023570198),
    (0.5, -4.0, 10.213878037796994403, 4.7117175217431879671),
    (0.5, -6.0, 60.239060213633741362, 29.567965458714092053),
    (0.5, -9.0, 973.5247483631558246, 496.20455105009494908),
    (0.5, -12.5, 27133.45864309146374, 14111.304174601277371),
    (0.5, -15.0, 300702.26831375837678, 157713.10716911703029),
    (0.5, -17.9, 4988660.3431791629156, 2634232.0908699614631),
    (3.0, 0.0, -0.26005195490193343762, 0.0),
    (3.0, -0.25, -0.27176328356257763233, 0.085226712965998483289),
    (3.0, -1.0, -0.46049214388225845912, 0.36956500001486357806),
    (3.0, -2.5, -2.0602020743919042608, 1.4162305214291371914),
    (3.0, -4.0, -8.8121437936979055484, 4.59843789974303514),
    (3.0, -6.0, -58.652901352809750454, 23.639609922996465252),
    (3.0, -9.0, -1013.6225408159325323, 321.48609281438185829),
    (3.0, -12.5, -29124.597353467666149, 7804.8586586458166675),
    (3.0, -15.0, -326417.62955456176738, 80574.698117784076957),
    (7.25, 0.0, 0.29199692419177899751, 0.0),
    (7.25, -0.25, 0.30086820332525580145, 0.01742318268361286876),
    (7.25, -1.0, 0.44431260199317612224, 0.08741289453010392652),
    (7.25, -2.5, 1.6784860200203656403, 0.57365983192855071628),
    (7.25, -4.0, 6.9619281498695779035, 3.1042563371892408511),
    (7.25, -6.0, 46.008749116630478409, 26.106778805060241479),
    (7.25, -9.0, 780.26571537589989771, 557.59609009076105065),
    (7.25, -12.5, 21714.857462827872476, 18267.882851491263968),
    (7.25, -15.0, 237962.97369550236426, 216517.02396380863516),
    (12.0, 0.0, 0.047689310796833536624, 0.0),
    (12.0, -0.25, 0.049775063375640197219, -0.056426910988067273556),
    (12.0, -1.0, 0.084446056796024424833, -0.26125743015233745181),
    (12.0, -2.5, 0.42730617806983552244, -1.3142646753921786745),
    (12.0, -4.0, 2.2227384099735764148, -5.7230670655388316273),
    (12.0, -6.0, 18.879131908622668855, -39.868659333586056306),
    (12.0, -9.0, 426.80259499511031469, -722.0650390741693511),
    (12.0, -12.5, 14951.257389796754869, -21088.910269400957325),
    (17.5, 0.0, -0.10311039822868592217, 0.0),
    (17.5, -0.25, -0.106054409484041272, -0.041294525719280390485),
    (17.5, -1.0, -0.15358320611980645736, -0.19292279023577471782),
    (17.5, -2.5, -0.55954743430886558802, -1.0088739604202087488),
    (17.5, -4.0, -2.2803535594315039754, -4.6145520371740739837),
]
_J0_SCATTERED = [  # (Re x, Im x, Re J0(x), Im J0(x))
    (17.99, 0.0, -0.015235577728903903308, 0.0),
    (12.7, -12.7, 29928.706617596695786, -8096.1889732503312535),
    (1.0, -17.9, 3179354.5105573889642, 4656106.5339904143539),
    (2.0, 0.0, 0.22389077914123566805, 0.0),
    (0.5, -0.1, 0.94074087477217640552, 0.024257035056653056529),
]


def _j0_envelope(x):
    """sqrt(2 / (pi |x|)) cosh(Im x), |x| floored at 1: the size of J0's two
    exponential halves."""
    return np.sqrt(2.0 / (np.pi * np.maximum(np.abs(x), 1.0))) * np.cosh(x.imag)


def _bent_leg_nodes(frequency, span, rho):
    """The complex k_rho of the bent leg the direct wave over ``span`` takes
    for the lags ``rho`` at their oscillation budget."""
    scene = _los_scene(Medium(frequency, VACUUM), span)
    spec = _required_nodes(scene, FieldComponent.LOS_ONLY, [SpatialLag(float(rho.max()))])
    path = _path([scene], FieldComponent.LOS_ONLY, spec, spec.n_alpha, rho, per_lag=False)
    assert not path.straight
    kappa1 = scene.medium.kappa1
    return _leg(kappa1, path.angle, -1.0, path.depth, *_rule(path.leg_nodes, _TAIL_CUTOFF))[0]


def _count_jv(monkeypatch):
    """The sizes of the arguments ``_leg_j0`` hands to ``jv``."""
    sizes = []

    def counted(order, x):
        sizes.append(np.size(x))
        return jv(order, x)

    monkeypatch.setattr(quadrature, "jv", counted)
    return sizes


class TestLegBessel:
    """The bent leg's complex Bessel matrix: Hankel's expansion from |x| =
    18 and Taylor's series about the leg's real start below it, in blocks
    of several lags; ``jv`` for fewer lags and past the spread guard."""

    def test_against_30_digit_values(self, monkeypatch):
        sizes = _count_jv(monkeypatch)
        x = np.array([complex(re, im) for re, im, _, _ in _J0_REFERENCE])
        expected = np.array([complex(re, im) for _, _, re, im in _J0_REFERENCE])
        values = _leg_j0(np.ones(_HANKEL_LAGS), x)
        assert sum(sizes) == 0
        assert np.all(np.abs(values - expected) <= 1e-15 * _j0_envelope(x))

    def test_near_against_30_digit_values(self, monkeypatch):
        """Each vertical leg x0 - i t, in as many rows as make it take the
        series, is summed by Taylor's series with no ``jv``; the scattered
        points spread past the guard.  Both within 4e-15 of J0's envelope,
        the bound of the far elements."""
        sizes = _count_jv(monkeypatch)
        legs = {}
        for re, im, value_re, value_im in _J0_NEAR_LEGS:
            legs.setdefault(re, []).append((complex(re, im), complex(value_re, value_im)))
        assert len(legs) == 5
        for leg in legs.values():
            x, expected = (np.array(column) for column in zip(*leg))
            values = _leg_j0(np.ones(_TAYLOR_NEAR), x)
            assert np.all(np.abs(values - expected) <= 4e-15 * _j0_envelope(x))
        assert sum(sizes) == 0
        x = np.array([complex(re, im) for re, im, _, _ in _J0_SCATTERED])
        expected = np.array([complex(re, im) for _, _, re, im in _J0_SCATTERED])
        assert np.all(np.abs(x) < _HANKEL_FAR)
        values = _leg_j0(np.ones(_TAYLOR_NEAR), x)
        assert np.all(np.abs(values - expected) <= 4e-15 * _j0_envelope(x))

    @settings(max_examples=40, deadline=None)
    @given(frequency=st.sampled_from([57.5e9, 140e9, 300e9]),
           span=st.floats(3.0, 20.0),
           rho=st.lists(st.one_of(st.sampled_from([0.0, 1e-12]), st.floats(1e-3, 20.0)),
                        min_size=_HANKEL_LAGS, max_size=40))
    def test_matches_jv_on_leg_nodes(self, frequency, span, rho):
        """Real leg nodes at 57.5, 140 and 300 GHz: every element within
        4e-15 of J0's envelope of ``jv``'s, and rows with rho = 0 exactly 1."""
        rho = np.array(rho)
        krho = _bent_leg_nodes(frequency, span, np.append(rho, 1e-3))
        x = rho[:, None] * krho
        values = _leg_j0(rho, krho)
        assert np.all(np.abs(values - jv(0, x)) <= 4e-15 * _j0_envelope(x))
        assert np.all(values[rho == 0.0] == 1.0)

    @pytest.mark.parametrize(("experiment", "frequency_ghz", "series"),
                             [("fig5", 57.5, True), ("fig4", 300.0, False)])
    def test_experiment_blocks(self, monkeypatch, experiment, frequency_ghz, series):
        """N = 16.  fig5 at 57.5 GHz: the blocks of several lags hold
        thousands of near elements, all summed by the series, so none goes
        to ``jv``.  fig4 at 300 GHz: a block holds one row of them, fewer
        than pay for the series, so all go to ``jv``.  No block raises a
        RuntimeWarning."""
        near, handed = [], []
        original = quadrature._leg_j0

        def counting(rho, krho):
            if rho.size < _HANKEL_LAGS:
                return original(rho, krho)
            x = rho[:, None] * krho
            near.append(int(np.sum((np.abs(x) < _HANKEL_FAR) & (rho[:, None] > 0.0))))
            handed.append(0)
            values = original(rho, krho)
            handed.append(None)  # closes the block
            return values

        def counted(order, x):
            if handed and handed[-1] is not None:
                handed[-1] += np.size(x)
            return jv(order, x)

        monkeypatch.setattr(quadrature, "_leg_j0", counting)
        monkeypatch.setattr(quadrature, "jv", counted)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            run_named(experiment, ExperimentConfig(frequency_ghz=frequency_ghz, antennas=16))
        assert near and sum(near) > 0
        if series:
            assert sum(near) > 2000 and not any(handed[::2])
        else:
            assert handed[::2] == near and max(near) < _TAYLOR_NEAR

    def test_zero_rows_are_exactly_one(self, monkeypatch):
        rho = np.array([0.0, 0.01, 0.0, 0.02, 0.015, 5.0])
        krho = _bent_leg_nodes(57.5e9, 10.0, rho)
        assert np.count_nonzero(np.abs(rho[[1, 3, 4], None] * krho) < _HANKEL_FAR) >= _TAYLOR_NEAR
        sizes = _count_jv(monkeypatch)
        values = _leg_j0(rho, krho)
        assert sum(sizes) == 0
        assert np.all(values[[0, 2]] == 1.0 + 0.0j)
        assert not np.any(np.signbit(values[[0, 2]].imag))

    def test_past_the_spread_guard_takes_jv(self, monkeypatch):
        """A block whose real spread times rho passes 1: its near elements
        are ``jv``'s bit for bit, its far ones Hankel's."""
        x = np.array([17.99, 12.7 - 12.7j, 1.0 - 17.9j, 2.0, 0.5 - 0.1j, 30.0 - 5.0j])
        rho = np.ones(_TAYLOR_NEAR)
        assert np.ptp(x.real) * rho.max() > _TAYLOR_SPREAD
        sizes = _count_jv(monkeypatch)
        values = _leg_j0(rho, x)
        near = np.abs(x) < _HANKEL_FAR
        assert sizes == [rho.size * int(near.sum())]
        assert np.array_equal(values[:, near], np.broadcast_to(jv(0, x[near]), (rho.size, 5)))
        assert abs(values[0, -1] - jv(0, x[-1])) <= 4e-15 * _j0_envelope(x[-1])

    @pytest.mark.parametrize("rho, far_rows", [
        ([0.0, 1e-12, 1e-6, 1e-3], [False] * 4),
        ([5.0, 10.0, 15.0, 20.0], [True] * 4),
        ([0.0, 1e-12, 0.5, 20.0], [False, False, True, True]),
    ], ids=["all-near", "all-far", "zero-row"])
    def test_no_overflow_or_warning(self, rho, far_rows):
        rho = np.array(rho)
        krho = _bent_leg_nodes(300e9, 20.0, rho)
        far = np.abs(rho[:, None] * krho) >= _HANKEL_FAR
        assert far.all(axis=1).tolist() == far.any(axis=1).tolist() == far_rows
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            values = _leg_j0(rho, krho)
        assert np.all(np.isfinite(values))

    @pytest.mark.parametrize("lags", [1, _HANKEL_LAGS - 1])
    def test_blocks_of_few_lags_take_jv(self, monkeypatch, lags):
        rho = np.linspace(5.0, 20.0, lags)
        krho = _bent_leg_nodes(300e9, 20.0, rho)
        sizes = _count_jv(monkeypatch)
        values = _leg_j0(rho, krho)
        assert sizes == [rho.size * krho.size]
        assert np.array_equal(values, jv(0, rho[:, None] * krho))


def _off_axis_case(frequency, reflected, span):
    """The scene, component, path length and sign of the direct wave over
    ``span`` or of the conductor's image over a reflected path ``span``."""
    if reflected:
        scene = _image_scene(Medium(frequency, PERFECT_CONDUCTOR), span)
        length = 2.0 * scene.surface_z - scene.receiver_z - scene.source_z
        return scene, FieldComponent.REFLECTION_ONLY, length, -1.0
    return _los_scene(Medium(frequency, VACUUM), dz=span), FieldComponent.LOS_ONLY, span, 1.0


def _exact_field(scene, length, rho, sign, y=0.0):
    """sign * -i kappa1 eta / (4 pi) e^{i kappa1 R} / R, R = hypot(length,
    rho, y), with the phase of :func:`_exact_wave`."""
    kappa1 = scene.medium.kappa1
    return (sign * -1j * kappa1 * FREE_SPACE_IMPEDANCE / (4.0 * math.pi)
            * _exact_wave(kappa1, length, rho, y) / math.hypot(length, rho, y))


class TestPerLagPath:
    """A positive lag of a part with an entire coefficient runs on its own
    path: a short real start, the two Hankel halves, and the specular
    saddle crossed on its steepest-descent path."""

    @pytest.mark.parametrize("reflected", [False, True], ids=["los", "conductor"])
    @pytest.mark.parametrize("frequency", [57.5e9, 140e9, 300e9],
                             ids=["57.5GHz", "140GHz", "300GHz"])
    def test_off_axis_matches_the_exact_wave(self, monkeypatch, frequency, reflected):
        """Lags from below the 2 m span up to 20 times it, so kappa1 R
        reaches 2.5e5 at 300 GHz: the path carries kappa1 R exactly, as
        the oracle does with R in 40-digit decimals, where a rounded R
        would miss it by up to kappa1 R 2^-53."""
        span = 2.0
        scene, component, length, sign = _off_axis_case(frequency, reflected, span)
        counter = _count_lag_sums(monkeypatch)
        for ratio in (0.8, 1.0, 2.0, 5.0, 10.0, 20.0):
            rho = ratio * span
            lag = SpatialLag(rho)
            value = synthesize_impulse(scene, component, lag, _auto_spec(scene, component, lag))
            expected = _exact_field(scene, length, rho, sign)
            assert abs(value - expected) <= 1e-12 * abs(expected), ratio
        assert counter["lags"] == 6

    @pytest.mark.parametrize(("frequency", "span", "rho"), [
        (140e9, 0.1, 20.0), (300e9, 0.02, 10.0), (300e9, 0.02, 20.0), (300e9, 0.05, 10.0),
    ])
    def test_far_past_grazing(self, monkeypatch, frequency, span, rho):
        """Lags 200 to 1000 times the span put the saddle path just below
        the real axis of the Hankel argument, where scipy's scaled
        ``hankel1e`` alone would miss by ~|x| 2^-53 (1e-12 here)."""
        scene, component, length, sign = _off_axis_case(frequency, False, span)
        lag = SpatialLag(rho)
        counter = _count_lag_sums(monkeypatch)
        value = synthesize_impulse(scene, component, lag, _auto_spec(scene, component, lag))
        expected = _exact_field(scene, length, rho, sign)
        assert counter["lags"] == 1
        assert abs(value - expected) <= 5e-14 * abs(expected)

    def test_both_lag_components_form_the_path_length(self, monkeypatch):
        """R is formed in double-double from the path length and both lag
        components: rounding hypot(x, y) first, as a transverse distance,
        missed the field by 2e-12 at 300 GHz over a 2 m image path.
        Swapping or negating the components changes no bit."""
        scene, component, length, sign = _off_axis_case(300e9, True, 2.0)
        counter = _count_lag_sums(monkeypatch)
        for x, y in ((5.0, 1.0), (1.0, 5.0)):
            lag = SpatialLag(x, y)
            spec = _auto_spec(scene, component, lag)
            value = synthesize_impulse(scene, component, lag, spec)
            expected = _exact_field(scene, length, x, sign, y)
            assert abs(value - expected) <= 1e-12 * abs(expected), (x, y)
            for other in (SpatialLag(y, x), SpatialLag(-x, y), SpatialLag(x, -y)):
                assert synthesize_impulse(scene, component, other, spec) == value, other
        assert counter["lags"] == 8

    def test_grazing_call_takes_the_per_lag_path(self, monkeypatch):
        """The call that keeps the straight shared path (7,360 nodes) runs
        a few panels on its own path."""
        medium = Medium(300e9, PERFECT_CONDUCTOR)
        scene = _image_scene(medium, 10.0 * medium.wavelength)
        component = FieldComponent.REFLECTION_ONLY
        lag = SpatialLag(1.0)
        spec = _auto_spec(scene, component, lag)
        nodes, lags = _count_nodes(monkeypatch), _count_lag_sums(monkeypatch)
        value = synthesize_impulse(scene, component, lag, spec)
        assert lags["lags"] == 1 and nodes["nodes"] <= 400
        length = 2.0 * scene.surface_z - scene.receiver_z
        expected = _exact_field(scene, length, 1.0, -1.0)
        assert abs(value - expected) <= 1e-12 * abs(expected)

    @pytest.mark.parametrize(("experiment", "frequency_ghz"), [("fig4", 300.0), ("fig5", 57.5)])
    def test_ula_matrices_keep_the_shared_path(self, monkeypatch, experiment, frequency_ghz):
        """A parallel ULA's lags include 0 and share one path per part."""
        shared = {"sums": 0}
        original = quadrature._shared_sums

        def counting(*args):
            shared["sums"] += 1
            return original(*args)

        monkeypatch.setattr(quadrature, "_shared_sums", counting)
        lags = _count_lag_sums(monkeypatch)
        run_named(experiment, ExperimentConfig(frequency_ghz=frequency_ghz, antennas=16))
        assert lags["lags"] == 0 and shared["sums"] > 0

    def test_offset_arrays_keep_the_shared_path(self, monkeypatch):
        """Arrays offset 3 m along the surface have only positive lags, but
        one shared path serves all of them, so none takes its own."""
        medium = Medium(300e9, PERFECT_CONDUCTOR)
        scene = _image_scene(medium, 2.0)
        tx = ArrayLayout(count=4, spacing=0.05, center=(0.0, 0.0, scene.source_z))
        for axis in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)):
            rx = ArrayLayout(count=4, spacing=0.05, center=(3.0, 0.0, scene.receiver_z),
                             axis=axis)
            lags = _count_lag_sums(monkeypatch)
            build_channel_matrix(scene, tx, rx, FieldComponent.REFLECTION_ONLY)
            assert lags["lags"] == 0

    def test_mixed_batch_splits_the_reflected_part(self, monkeypatch):
        """In a conductor and concrete batch both images ride the same
        per-lag path, one ``_lag_sum`` with a coefficient column per scene,
        as each does alone, so each column matches its single-scene call to
        round-off (a 3 m lag over a 2 m image path at 300 GHz), also where
        the direct wave is added.  The conductor's shared path would differ
        by 9e-13."""
        conductor = _image_scene(Medium(300e9, PERFECT_CONDUCTOR), 2.0)
        concrete = dataclasses.replace(conductor, medium=Medium(300e9, CONCRETE))
        lag = SpatialLag(3.0)
        for component in (FieldComponent.REFLECTION_ONLY, FieldComponent.LOS_PLUS_REFLECTION):
            spec = _auto_spec(conductor, component, lag)
            batch = synthesize_impulse([conductor, concrete], component, lag, spec)
            for value, scene in zip(batch, (conductor, concrete)):
                single = synthesize_impulse(scene, component, lag, spec)
                assert abs(value - single) <= 1e-14 * abs(single), component
        component = FieldComponent.REFLECTION_ONLY
        lags = _count_lag_sums(monkeypatch)
        batch = synthesize_impulse([conductor, concrete], component, lag,
                                   _auto_spec(conductor, component, lag))
        assert lags["lags"] == 1
        length = 2.0 * conductor.surface_z - conductor.receiver_z
        expected = _exact_field(conductor, length, 3.0, -1.0)
        assert abs(batch[0] - expected) <= 1e-12 * abs(expected)

    def test_dielectric_takes_the_per_lag_path(self, monkeypatch):
        """Concrete's far-side branch points lie far past the tail cutoff,
        so its image takes the per-lag path, as the conductor's does at the
        same geometry, and matches the shared path."""
        conductor = _image_scene(Medium(140e9, PERFECT_CONDUCTOR), 2.0)
        concrete = dataclasses.replace(conductor, medium=Medium(140e9, CONCRETE))
        component, lag = FieldComponent.REFLECTION_ONLY, SpatialLag(10.0)
        spec = _auto_spec(conductor, component, lag)
        lags = _count_lag_sums(monkeypatch)
        value = synthesize_impulse(concrete, component, lag, spec)
        assert lags["lags"] == 1
        shared = _synthesize_on_planes([concrete], component, [lag], spec, per_lag=False)[0][0, 0]
        assert lags["lags"] == 1
        assert abs(value - shared) <= 1e-11 * abs(shared)

    def test_far_side_clearance(self):
        """A dielectric's image needs kappa1 L sqrt(n^2 - 1) >= 36."""
        medium = Medium(300e9, Material("thin", 1.01))
        length = _TAIL_CUTOFF / (medium.kappa1 * math.sqrt(1.01 ** 2 - 1.0))
        for factor, taken in ((1.0 - 1e-9, False), (1.0 + 1e-9, True)):
            scene = _image_scene(medium, length * factor)
            assert quadrature._entire(scene, FieldComponent.REFLECTION_ONLY) is taken

    def test_near_unit_index_keeps_the_shared_path(self, monkeypatch):
        """At n = 1.000001 the branch points sit close to the real axis,
        kappa1 L sqrt(n^2 - 1) ~ 0.89 over a 0.1 m image path at 300 GHz,
        so nothing bounds what lies beyond them and the image keeps the
        shared path; at a 1 m lag the per-lag path would differ from it by
        0.97 relative."""
        scene = _image_scene(Medium(300e9, Material("thin", 1.000001)), 0.1)
        component, lag = FieldComponent.REFLECTION_ONLY, SpatialLag(1.0)
        spec = _auto_spec(scene, component, lag)
        lags = _count_lag_sums(monkeypatch)
        value = synthesize_impulse(scene, component, lag, spec)
        assert lags["lags"] == 0
        assert value == _synthesize_on_planes([scene], component, [lag], spec,
                                               per_lag=False)[0][0, 0]

    def test_dielectric_grid_matches_the_shared_path(self, monkeypatch):
        """Over three frequencies, the catalog dielectrics and n = 1.01,
        image paths of 10 wavelengths to 20 m and lags up to 20 m, about
        half the calls take the per-lag path; each matches the shared path
        (worst 3.7e-12)."""
        component = FieldComponent.REFLECTION_ONLY
        lags = _count_lag_sums(monkeypatch)
        calls = 0
        for frequency in (57.5e9, 140e9, 300e9):
            for material in (CONCRETE, FLOOR_BOARD, PLASTER_BOARD, Material("thin", 1.01)):
                medium = Medium(frequency, material)
                for span in np.geomspace(10.0 * medium.wavelength, 20.0, 4):
                    scene = _image_scene(medium, float(span))
                    for rho in (0.05, 0.5, 3.0, 20.0):
                        lag = SpatialLag(rho)
                        spec = _auto_spec(scene, component, lag)
                        value = synthesize_impulse(scene, component, lag, spec)
                        shared = _synthesize_on_planes([scene], component, [lag], spec,
                                                       per_lag=False)[0][0, 0]
                        assert abs(value - shared) <= 1e-11 * abs(shared), (
                            frequency, material.name, span, rho)
                        calls += 1
        assert 0.3 * calls <= lags["lags"] <= 0.7 * calls

    def test_batch_below_the_guard_takes_one_shared_path(self, monkeypatch):
        """A conductor batched with a material below the far-side guard
        runs on the shared path with it; the conductor's column then
        differs from its per-lag single call by the shared path's
        round-off (9e-13 for a 3 m lag over a 2 m image path at 300 GHz)."""
        conductor = _image_scene(Medium(300e9, PERFECT_CONDUCTOR), 2.0)
        thin = dataclasses.replace(conductor, medium=Medium(300e9, Material("thin", 1.000001)))
        lag = SpatialLag(3.0)
        lags = _count_lag_sums(monkeypatch)
        # only the compound batch's direct wave takes its own path
        for component, own in ((FieldComponent.REFLECTION_ONLY, 0),
                               (FieldComponent.LOS_PLUS_REFLECTION, 1)):
            spec = _auto_spec(conductor, component, lag)
            lags["lags"] = 0
            batch = synthesize_impulse([conductor, thin], component, lag, spec)
            assert lags["lags"] == own
            for value, scene in zip(batch, (conductor, thin)):
                single = synthesize_impulse(scene, component, lag, spec)
                assert abs(value - single) <= 1e-11 * abs(single), component

    def test_saddle_clearance(self):
        """The per-lag path needs kappa1 R sin^2(a_s) = kappa1 rho^2 / R >= 10."""
        kappa1, length = Medium(300e9, VACUUM).kappa1, 20.0
        # kappa1 rho^2 = 10 hypot(length, rho), solved for rho by fixed point
        rho = 1.0
        for _ in range(50):
            rho = math.sqrt(10.0 * math.hypot(length, rho) / kappa1)
        assert _lag_path(kappa1, length, rho * (1.0 - 1e-9), 1) is None
        assert _lag_path(kappa1, length, rho * (1.0 + 1e-9), 1) is not None

    def test_convergence_doublings_refine_the_path(self, monkeypatch):
        """Past the budget each piece gets n_alpha // budget panels, so
        every doubling of ``convergence_study`` evaluates more nodes."""
        scene = _image_scene(Medium(300e9, PERFECT_CONDUCTOR), 0.05)
        component, lag = FieldComponent.REFLECTION_ONLY, SpatialLag(1.0)
        budget = _auto_spec(scene, component, lag).n_alpha
        study = convergence_study(scene, component, lag, rel_tol=1e-30,
                                  max_nodes=16 * budget)
        resolved = [row.n_alpha for row in study.rows if row.n_alpha >= budget]
        assert len(resolved) >= 4
        nodes, lags = _count_nodes(monkeypatch), _count_lag_sums(monkeypatch)
        counts = []
        for n_alpha in resolved:
            nodes["nodes"] = 0
            synthesize_impulse(scene, component, lag, QuadratureSpec(n_alpha))
            counts.append(nodes["nodes"])
        assert lags["lags"] == len(resolved)
        assert all(before < after for before, after in zip(counts, counts[1:]))


_PAST_THE_BUDGET = {
    # concrete's image at 57.5 GHz, d1 = 15 m, r_z = 0.5 m; lag 0
    "concrete": (57.5e9, CONCRETE, 0.5, [SpatialLag(0.0)]),
    # the conductor's image at 300 GHz, d1 = 15 m, r_z = 10 m; lag 0
    "conductor": (300e9, PERFECT_CONDUCTOR, 10.0, [SpatialLag(0.0)]),
    # the same image sampled by a 16-element ULA at 5 cm spacing
    "ula": (300e9, PERFECT_CONDUCTOR, 10.0, [SpatialLag(0.05 * k) for k in range(16)]),
}


def _past_the_budget_case(name):
    frequency, material, receiver_z, lags = _PAST_THE_BUDGET[name]
    scene = SceneConfig(medium=Medium(frequency, material), surface_z=15.0, source_z=0.0,
                        receiver_z=receiver_z)
    component = FieldComponent.REFLECTION_ONLY
    return scene, component, lags, _required_nodes(scene, component, lags).n_alpha


class TestRefinementPastTheBudget:
    """Node counts past the oscillation budget refine the path the budget
    fixes: the bend, the leg and the straight/bent choice stay, and only
    the real nodes grow."""

    @pytest.mark.parametrize("case", list(_PAST_THE_BUDGET))
    def test_resolved_geometry_does_not_follow_n_alpha(self, case):
        scene, component, lags, budget = _past_the_budget_case(case)
        max_rho = max(lag.transverse for lag in lags)
        paths = [_path([scene], component, QuadratureSpec(factor * budget), budget,
                       np.array([max_rho]), per_lag=False) for factor in (1, 2, 4, 16)]
        geometry = {(p.angle, p.depth, p.leg_nodes, p.straight) for p in paths}
        assert len(geometry) == 1
        panels = [path.panels for path in paths]
        assert all(before <= after for before, after in zip(panels, panels[1:]))

    @pytest.mark.parametrize("case", ["concrete", "conductor"])
    def test_doublings_past_the_budget_stay_at_round_off(self, case):
        """Each doubling past the budget measures the same path on a finer
        rule, so the trace stays at round-off instead of drifting."""
        scene, component, (lag,), budget = _past_the_budget_case(case)
        study = convergence_study(scene, component, lag, rel_tol=1e-30,
                                  max_nodes=32 * budget)
        deltas = [row.delta for row in study.rows if row.n_alpha > budget]
        assert len(deltas) >= 4
        assert max(deltas) <= 1e-13

    def test_per_lag_legs_do_not_follow_n_alpha(self, monkeypatch):
        """A per-lag call past its budget puts the extra panels on its real
        start and saddle path; its legs are sized by the geometry alone."""
        medium = Medium(300e9, PERFECT_CONDUCTOR)
        scene = _image_scene(medium, 10.0 * medium.wavelength)
        component, lag = FieldComponent.REFLECTION_ONLY, SpatialLag(1.0)
        budget = _auto_spec(scene, component, lag).n_alpha
        paths, values = [], []
        original = quadrature._lag_sum

        def recording(scenes, part, path, lag):
            paths.append(path)
            return original(scenes, part, path, lag)

        monkeypatch.setattr(quadrature, "_lag_sum", recording)
        for factor in (1, 4):
            values.append(synthesize_impulse(scene, component, lag,
                                             QuadratureSpec(factor * budget)))
        assert len(paths) == 2
        assert paths[1].leg_nodes == paths[0].leg_nodes
        assert paths[1].panels == 4 * paths[0].panels
        assert abs(values[1] - values[0]) <= 1e-13 * abs(values[0])

    def test_per_lag_choice_is_made_at_the_count(self, monkeypatch):
        """The bend is geometry that every lag of a call shares, so the
        budget fixes it; taking a single lag's own path is that call's
        choice alone, made at the count it evaluates, where it is cheapest.
        The conductor's image at 140 GHz (d1 = 0.246 m, r_z = 0.164 m, lag
        0.537 m) keeps the shared path at its budget and takes the per-lag
        path at twice it (4.2e-14 off); deciding at the budget would keep
        the shared path, 1.7e-13 off at twice the budget."""
        scene = SceneConfig(medium=Medium(140e9, PERFECT_CONDUCTOR), surface_z=0.246,
                            source_z=0.0, receiver_z=0.164)
        component, lag = FieldComponent.REFLECTION_ONLY, SpatialLag(0.537)
        budget = _auto_spec(scene, component, lag).n_alpha
        expected = -los_impulse(Medium(140e9, VACUUM), (0.537, 0.0, 0.164),
                                (0.0, 0.0, 2.0 * 0.246))
        lags = _count_lag_sums(monkeypatch)
        for factor, own in ((1, 0), (2, 1)):
            lags["lags"] = 0
            value = synthesize_impulse(scene, component, lag, QuadratureSpec(factor * budget))
            assert lags["lags"] == own, factor
            assert abs(value - expected) <= 1e-13 * abs(expected), factor

    def test_matrix_refinement(self):
        """fig4 at 300 GHz with an explicit count ~4x past its budget keeps
        the auto-sized spectra to round-off."""
        auto = run_named("fig4", ExperimentConfig(frequency_ghz=300.0, antennas=16))
        refined = run_named("fig4", ExperimentConfig(frequency_ghz=300.0, antennas=16,
                                                     n_alpha=500000))
        auto_rows = auto.table("eigenvalues").rows
        refined_rows = refined.table("eigenvalues").rows
        assert [row[:3] for row in refined_rows] == [row[:3] for row in auto_rows]
        largest = max(row[3] for row in auto_rows)
        assert max(abs(a[3] - b[3]) for a, b in zip(auto_rows, refined_rows)) <= 1e-12 * largest


def test_first_synthesis_leaves_scipy_linalg_unimported():
    """The Gauss-Legendre panel comes from numpy, so a synthesis in a fresh
    interpreter does not import scipy.linalg (44 modules)."""
    import reflectmimo

    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(Path(reflectmimo.__file__).parents[1])!r})\n"
        "from reflectmimo import *\n"
        "scene = SceneConfig(medium=Medium(57.5e9, VACUUM), surface_z=2.0, source_z=0.0,"
        " receiver_z=1.0)\n"
        "synthesize_impulse(scene, FieldComponent.LOS_ONLY, SpatialLag(0.2),"
        " QuadratureSpec(1024))\n"
        "assert 'scipy.linalg' not in sys.modules, 'scipy.linalg imported'\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr
