import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hermspec import (
    BallDensitySpec,
    CoveringFamily,
    CubeDensitySpec,
    InputError,
    Region,
    ResolutionError,
    SensorSet,
    besicovitch_covering,
    concentration_radius,
    example_finite_measure_set,
    lattice_covering,
    unit_ball_volume,
)
from hermspec import geometry
from reference_loops import first_overlap_loop, mark_ball_broadcast, overlap_at


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
    lines = S.to_text().splitlines()
    assert lines[0] == "dim=2"
    T = SensorSet(tuple(Region.from_line(line, 2) for line in lines[1:]))
    assert T == S  # repr round-trip must be bit exact


def test_scaled_set_rejects_nan():
    with pytest.raises(InputError, match="finite"):
        Region.interval(0, 1).scaled(math.nan)


def test_scaled_set_rejects_inf():
    for region in (Region.interval(0, 1), Region.ball((10.0,), 2.0)):
        with pytest.raises(InputError, match="finite"):
            region.scaled(math.inf)


def test_scaling_by_a_negative_factor_is_rejected():
    with pytest.raises(InputError, match="half-sides must be positive"):
        Region.interval(0, 1).scaled(-2.0)
    with pytest.raises(InputError, match="radius must be positive"):
        Region.ball((1.0, 2.0), 0.5).scaled(-2.0)


def test_scaled_set_measure():
    S = SensorSet((Region.interval(0, 1), Region.ball((10.0,), 2.0)))
    scaled = SensorSet(tuple(r.scaled(3.0) for r in S.regions))
    assert scaled.measure() == pytest.approx(3.0 * S.measure())
    # the semigroup dilation uses the t^(1/4) factor
    assert S.regions[0].scaled(16.0 ** 0.25).half_sides[0] == pytest.approx(1.0)


def test_finite_measure_example_density():
    spec = CubeDensitySpec(gamma=0.5, beta=0.5, rho=1.0, d=1)
    S = example_finite_measure_set(spec, 4, window_radius=4)
    assert len(S.regions) == 9
    # the default window max(16, sqrt(2N + d) + 8) is 16 up to N = 31, 17 at N = 40
    assert [len(example_finite_measure_set(spec, N).regions) for N in (12, 40, 160)] == [
        33, 35, 51]
    assert S.measure() < 4.0  # strictly finite measure inside the window
    for box in S.regions:  # one box per unit cell, meeting the density with equality
        (h,) = box.half_sides
        assert (2.0 * h) ** spec.d == pytest.approx(spec.required_ratio(box.center), rel=1e-12)


def test_lattice_covering_shape():
    cov = lattice_covering(1.0, 1, 4, kappa=1)
    assert cov.eta == pytest.approx(1.0)
    assert cov.D == pytest.approx(1.0)
    assert cov.eps == 1.0
    # central cubes cover the concentration ball B(0, 32 sqrt(4))
    assert min(r.center[0] for k, r in enumerate(cov.elements) if k in cov.central) <= -64.0
    # disjoint unit cubes: overlap count is 1 in the interior
    pts = np.array([[0.2], [7.3], [-40.6]])
    assert overlap_at(cov, pts).tolist() == [1, 1, 1]


def test_lattice_covering_window_contains_concentration_ball():
    cov = lattice_covering(0.5, 2, 2, kappa=1)
    C = cov.meta["C"]
    assert C == pytest.approx(64.0)
    radius = C * math.sqrt(2)
    pts = radius / math.sqrt(2) * np.array([[1.0, 1.0], [-1.0, 1.0]]) * 0.999
    assert np.all(overlap_at(cov, pts) >= 1)


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
            assert r.radius <= spec.radius_at(r.center) * (1 + 1e-12)


def test_besicovitch_grid_coverage():
    spec = BallDensitySpec(gamma=0.5, alpha=0.0, eps=0.5, R=1.0, profile="power")
    cov = besicovitch_covering(spec, 1, 2, K=16)
    A = cov.meta["A_radius"]
    pts = np.linspace(-A, A, 500)[:, None]
    assert np.all(overlap_at(cov, pts) >= 1)


def test_besicovitch_resolution_guard():
    spec = BallDensitySpec(gamma=0.5, alpha=0.0, eps=1.0, R=1e-6, profile="constant")
    with pytest.raises(ResolutionError):
        besicovitch_covering(spec, 1, 1, K=16)


def test_besicovitch_grid_ceiling_raises_before_allocating():
    # the d = 3 grid would have 5969^3 ~ 2.1e11 points
    spec = BallDensitySpec(gamma=0.5, alpha=0.0, eps=0.5, R=1.0, profile="power")
    tracemalloc.start()
    try:
        with pytest.raises(ResolutionError, match=r"grid of \d+ points exceeds"):
            besicovitch_covering(spec, 3, 1, K=16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def _greedy_reference(spec, d, N, K=16):
    """Balls and measured overlap of the plain greedy on the covering's grid.

    One full meshgrid, a stable argsort of -rho over all of it, and each new
    ball marks the grid points of its bounding box within distance rho.
    """
    A = concentration_radius(d, float(K) ** d) * math.sqrt(N)
    h = spec.radius_at(np.zeros(d)) / 8.0
    n = math.ceil(A / h)
    axis = np.arange(-n, n + 1) * h
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    r2 = sum(g * g for g in grids)
    active = r2 <= A ** 2
    if spec.profile == "constant":
        radii = np.full(r2.shape, float(spec.R))
    else:
        radii = spec.R * (1.0 + r2) ** ((1.0 - spec.eps) / 2.0)
    covered = ~active
    overlap = np.zeros(r2.shape, dtype=int)
    balls = []
    for idx in np.argsort(-radii.ravel(), kind="stable"):
        if covered.flat[idx]:
            continue
        c = (np.array(np.unravel_index(idx, r2.shape)) - n) * h
        r = float(radii.flat[idx])
        lo = np.maximum(np.floor((c - r) / h).astype(int), -n)
        hi = np.minimum(np.ceil((c + r) / h).astype(int), n)
        box = tuple(slice(a + n, b + n + 1) for a, b in zip(lo, hi))
        sub = np.meshgrid(*[np.arange(a, b + 1) for a, b in zip(lo, hi)], indexing="ij")
        inside = sum((g * h - cj) ** 2 for g, cj in zip(sub, c)) <= r ** 2
        covered[box] |= inside
        overlap[box] += inside
        balls.append((tuple(float(x) for x in c), r))
    return balls, int(overlap[active].max())


@pytest.mark.parametrize("d, R, eps, profile", [
    (1, 8.0, 0.5, "power"),
    (2, 8.0, 0.5, "power"),
    (2, 5.3, 0.5, "power"),  # h = 0.6625 is not a power of two
    (2, 8.0, 1.0, "power"),
    (2, 8.0, 0.5, "constant"),
    (2, 8.0, 1.0 - 1e-12, "power"),  # neighbouring q round to one float radius
    (2, 8.0, 1.0 - 1e-13, "power"),  # such ties straddle shells with uncovered points
    (3, 64.0, 0.9, "power"),  # 95^3 grid points, 197 balls
])
def test_besicovitch_matches_plain_greedy(d, R, eps, profile):
    spec = BallDensitySpec(gamma=0.5, alpha=0.0, eps=eps, R=R, profile=profile)
    cov = besicovitch_covering(spec, d, 1, K=16)
    balls, kappa_measured = _greedy_reference(spec, d, 1)
    assert [(r.center, r.radius) for r in cov.elements] == balls
    assert cov.meta["kappa_measured"] == kappa_measured


def test_besicovitch_memory_stays_off_the_full_grid():
    # criterion 11's d = 2 case: 3437^2 grid points, 1345 balls
    spec = BallDensitySpec(gamma=0.5, alpha=0.0, eps=0.5, R=1.0, profile="power")
    tracemalloc.start()
    try:
        cov = besicovitch_covering(spec, 2, 1, K=16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cov.elements) == 1345
    # one int16 count per grid point (23.6 MB) and band-sized work arrays
    assert peak < 32 * 2 ** 20
    # the walk enumerates only the points of blocks no single ball holds yet
    assert cov.meta["points_visited"] < 1_500_000 < 3437 ** 2


def test_besicovitch_stops_once_a_ball_holds_A(monkeypatch):
    spec = BallDensitySpec(gamma=0.5, alpha=0.0, eps=0.2, R=8.0, profile="power")
    shells = []
    lattice_shell = geometry._lattice_shell

    def counting(*args):
        shells.append(args[2:])
        return lattice_shell(*args)

    monkeypatch.setattr(geometry, "_lattice_shell", counting)
    cov = besicovitch_covering(spec, 2, 1, K=16)
    balls, kappa_measured = _greedy_reference(spec, 2, 1)
    assert [(r.center, r.radius) for r in cov.elements] == balls
    assert cov.meta["kappa_measured"] == kappa_measured == 1
    # the first ball holds all of A, so the walk ends in the outermost shell
    assert len(balls) == 1 and len(shells) == 1


def _grid(h, n, d):
    axis = np.arange(-n, n + 1) * h
    closed = np.zeros((-(-axis.size // geometry._BLOCK),) * d, dtype=bool)
    return axis, np.zeros((axis.size,) * d, dtype=np.int16), closed


@pytest.mark.parametrize("d, n", [(1, 300), (2, 60), (3, 20)])
def test_mark_ball_matches_the_broadcast_marking_bitwise(d, n):
    rng = np.random.default_rng(d)
    for h in (0.125, 0.6625, 1.0 / 3.0):
        axis, overlap, closed = _grid(h, n, d)
        want = overlap.copy()
        for _ in range(40):
            c = axis[rng.integers(0, axis.size, d)]
            r = float(h * rng.uniform(1.0, n / 2.0))
            geometry._mark_ball(overlap, closed, axis, c, r)
            mark_ball_broadcast(want, c, r, h, n)
        assert overlap.tobytes() == want.tobytes()


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(d=st.integers(1, 3), h=st.sampled_from([0.6625, 0.125, 0.1, 1.0 / 3.0, 2.5]),
       n=st.integers(1, 20), steps=st.floats(1.0, 30.0), data=st.data())
def test_a_closed_block_holds_only_points_its_ball_counted(d, h, n, steps, data):
    axis, overlap, closed = _grid(h, n, d)
    c = axis[[data.draw(st.integers(0, 2 * n)) for _ in range(d)]]
    geometry._mark_ball(overlap, closed, axis, c, steps * h)
    block = geometry._BLOCK
    held = np.kron(closed, np.ones((block,) * d, dtype=bool))[(slice(0, 2 * n + 1),) * d]
    assert np.all(overlap[held] == 1)


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


_GAPS = st.sampled_from([0.0, 1e-12, -1e-12, 0.25, -0.25])
_EIGHTHS = st.integers(min_value=1, max_value=16).map(lambda k: k / 8.0)


@st.composite
def _region_lists(draw):
    """Boxes and balls, many placed against an earlier region at a gap of 0, +-1e-12, ...

    The first region often sits at the origin, so that a region placed against
    it along an axis ties with the 1e-12 tolerance exactly.
    """
    d = draw(st.integers(min_value=1, max_value=3))
    regions = []
    for _ in range(draw(st.integers(min_value=1, max_value=7))):
        kind = draw(st.sampled_from(["box", "ball"]))
        size = tuple(draw(_EIGHTHS) for _ in range(d)) if kind == "box" else draw(_EIGHTHS)
        if regions and draw(st.booleans()):
            anchor = draw(st.sampled_from(regions))
            direction = np.array([draw(st.integers(min_value=-2, max_value=2)) for _ in range(d)],
                                 dtype=float)
            if not direction.any():
                direction[0] = 1.0
            direction /= np.linalg.norm(direction)
            axis = int(np.argmax(np.abs(direction)))
            reach = (anchor.radius if anchor.kind == "ball" else anchor.half_sides[axis]) + (
                size if kind == "ball" else size[axis])
            center = np.asarray(anchor.center) + (reach + draw(_GAPS)) * direction
        elif not regions and draw(st.booleans()):
            center = [0.0] * d
        else:
            center = [draw(st.integers(min_value=-24, max_value=24)) / 8.0 for _ in range(d)]
        regions.append(Region.box(center, size) if kind == "box" else Region.ball(center, size))
    return tuple(regions)


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(regions=_region_lists())
def test_array_overlap_check_decides_as_the_pairwise_loop(regions):
    pair = first_overlap_loop(regions)
    if pair is None:
        assert SensorSet(regions).regions == regions
    else:
        with pytest.raises(InputError, match=r"^regions %d and %d have overlapping" % pair):
            SensorSet(regions)
