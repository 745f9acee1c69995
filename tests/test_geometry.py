import math

import numpy as np
import pytest

from hermspec import (
    BallDensitySpec,
    CoveringFamily,
    CubeDensitySpec,
    InputError,
    Region,
    ResolutionError,
    SensorSet,
    besicovitch_covering,
    density_check,
    example_finite_measure_set,
    lattice_covering,
    scaled_set,
    unit_ball_volume,
)


def test_region_measures():
    assert Region.interval(-1.0, 3.0).measure() == pytest.approx(4.0)
    assert Region.box((0, 0), (1, 2)).measure() == pytest.approx(8.0)
    assert Region.ball((0, 0), 2.0).measure() == pytest.approx(math.pi * 4.0)
    assert Region.ball((0, 0, 0), 1.0).measure() == pytest.approx(4.0 * math.pi / 3.0)


def test_unit_ball_volume_oracle():
    assert unit_ball_volume(1) == pytest.approx(2.0)
    assert unit_ball_volume(2) == pytest.approx(math.pi)
    assert unit_ball_volume(4) == pytest.approx(math.pi ** 2 / 2.0)


def test_region_contains():
    b = Region.box((0.0, 0.0), (1.0, 1.0))
    pts = np.array([[0.5, 0.5], [1.0, 1.0], [1.5, 0.0]])
    assert b.contains(pts).tolist() == [True, True, False]
    s = Region.ball((0.0, 0.0), 1.0)
    assert s.contains(pts).tolist() == [True, False, False]


def test_invalid_regions():
    with pytest.raises(InputError):
        Region.box((0.0,), (0.0,))
    with pytest.raises(InputError):
        Region.ball((0.0,), -1.0)


@pytest.mark.parametrize("line", [
    "box 0.0 -1.0",      # negative half-side
    "ball 0.0 0.0",      # zero radius
    "box nan 1.0",       # non-finite center
    "ball 0.0 inf",      # non-finite radius
    "box 0.0",           # short line
    "box 0.0 x",         # not a number
    "",                  # empty line
])
def test_region_from_line_validates(line):
    with pytest.raises(InputError):
        Region.from_line(line, 1)


def test_sensor_set_rejects_overlap():
    with pytest.raises(InputError):
        SensorSet((Region.interval(0, 2), Region.interval(1, 3)))
    with pytest.raises(InputError):
        SensorSet((Region.ball((0.0, 0.0), 1.0), Region.box((1.0, 0.0), (0.5, 0.5))))


def test_sensor_set_allows_touching():
    S = SensorSet((Region.interval(0, 1), Region.interval(1, 2)))
    assert S.measure() == pytest.approx(2.0)


def test_sensor_set_serialization_round_trip():
    S = SensorSet((
        Region.box((0.125, -3.0), (0.25, 0.1)),
        Region.ball((5.0, 5.0), 1.0 / 3.0),
    ))
    T = SensorSet.from_text(S.to_text())
    assert T == S  # repr round-trip must be bit exact


def test_scaled_set_measure():
    S = SensorSet((Region.interval(0, 1), Region.ball((10.0,), 2.0)))
    assert S.scaled(3.0).measure() == pytest.approx(3.0 * S.measure())
    # the semigroup dilation uses the t^(1/4) factor
    assert scaled_set(S, 16.0).regions[0].half_sides[0] == pytest.approx(1.0)


def test_finite_measure_example_density():
    spec = CubeDensitySpec(gamma=0.5, beta=0.5, rho=1.0, d=1)
    S, ratios = example_finite_measure_set(spec, window_radius=4)
    assert len(S.regions) == 9
    assert S.measure() < 4.0  # strictly finite measure inside the window
    reports, ok = density_check(S, spec, window_radius=4)
    assert ok
    for rep in reports:
        assert rep.measured == pytest.approx(ratios[rep.cell], abs=1e-12)
        assert rep.measured >= spec.required_ratio(rep.cell) - 1e-12


def test_density_check_fails_on_sparse_set():
    spec = CubeDensitySpec(gamma=0.9, beta=0.0, rho=1.0, d=1)
    S = SensorSet((Region.interval(-0.1, 0.1),))
    _, ok = density_check(S, spec, window_radius=2)
    assert not ok


def test_lattice_covering_shape():
    cov = lattice_covering(1.0, 1, 4, kappa=1)
    assert cov.eta == pytest.approx(1.0)
    assert cov.D == pytest.approx(1.0)
    assert cov.eps == 1.0
    cov.validate(4)
    # central cubes cover the concentration ball B(0, 32 sqrt(4))
    assert min(r.center[0] for k, r in enumerate(cov.elements) if k in cov.central) <= -64.0
    # disjoint unit cubes: overlap count is 1 in the interior
    pts = np.array([[0.2], [7.3], [-40.6]])
    assert cov.overlap_at(pts).tolist() == [1, 1, 1]


def test_lattice_covering_window_contains_concentration_ball():
    cov = lattice_covering(0.5, 2, 2, kappa=1)
    C = cov.meta["C"]
    assert C == pytest.approx(64.0)
    radius = C * math.sqrt(2)
    pts = radius / math.sqrt(2) * np.array([[1.0, 1.0], [-1.0, 1.0]]) * 0.999
    assert np.all(cov.overlap_at(pts) >= 1)


def test_covering_serialization_round_trip():
    cov = lattice_covering(1.0, 1, 1, kappa=1)
    back = CoveringFamily.from_text(cov.to_text())
    assert back.elements == cov.elements
    assert back.central == cov.central
    assert back.kappa == cov.kappa


def test_covering_eta_cap():
    with pytest.raises(InputError):
        CoveringFamily((Region.interval(0, 1),), kappa=1.0, eta=10.0, D=1.0,
                       eps=1.0, central=())


def test_besicovitch_invariants():
    spec = BallDensitySpec(gamma=0.5, alpha=0.0, eps=0.5, R=1.0, profile="power")
    for d, N in ((1, 3), (2, 1)):
        cov = besicovitch_covering(spec, d, N, K=16)
        assert cov.meta["kappa_measured"] <= 16 ** d
        C = cov.meta["C"]
        cap = 2.0 * spec.R * C * N ** ((1.0 - spec.eps) / 2.0)
        for r in cov.elements:
            assert r.kind == "ball"
            assert r.radius <= cap * (1 + 1e-12)
            # radii never exceed the local growth cap at the center
            assert r.radius <= spec.radius_cap(np.asarray(r.center))[0] * (1 + 1e-12)
        cov.validate(N)


def test_besicovitch_grid_coverage():
    spec = BallDensitySpec(gamma=0.5, alpha=0.0, eps=0.5, R=1.0, profile="power")
    cov = besicovitch_covering(spec, 1, 2, K=16)
    A = cov.meta["A_radius"]
    pts = np.linspace(-A, A, 500)[:, None]
    assert np.all(cov.overlap_at(pts) >= 1)


def test_besicovitch_resolution_guard():
    spec = BallDensitySpec(gamma=0.5, alpha=0.0, eps=1.0, R=1e-6, profile="constant")
    with pytest.raises(ResolutionError):
        besicovitch_covering(spec, 1, 1, K=16)


def test_ball_density_spec_profiles():
    spec = BallDensitySpec(gamma=0.5, alpha=1.0, eps=0.5, R=2.0, profile="power")
    assert spec.radius_at(np.zeros(2)) == pytest.approx(2.0)
    assert spec.radius_at(np.array([1.0, 0.0])) == pytest.approx(2.0 * 2.0 ** 0.25)
    const = BallDensitySpec(gamma=0.5, alpha=1.0, eps=0.5, R=2.0, profile="constant")
    assert const.radius_at(np.array([3.0, 4.0])) == pytest.approx(2.0)


def test_spec_validation():
    with pytest.raises(InputError):
        CubeDensitySpec(gamma=1.5, beta=0.0, rho=1.0, d=1)
    with pytest.raises(InputError):
        BallDensitySpec(gamma=0.5, alpha=0.0, eps=0.0, R=1.0)
