"""Sensor sets, density conditions, and essential coverings of R^d.

Sets are finite disjoint unions of axis-aligned boxes and Euclidean balls
inside a working window.  Coverings are families of such regions together with
the overlap bound kappa, the shape parameters (eta, D, eps) and the tags of
the central elements (those meeting the concentration ball B(0, C sqrt(N))).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import concentration_radius, unit_ball_volume
from .errors import InputError, ResolutionError

# ceiling on the grid of a Besicovitch covering, and its band size
MAX_GRID_POINTS = 2 ** 27
_BAND_POINTS = 2 ** 16


@dataclass(frozen=True)
class Region:
    """Axis-aligned box (center, half_sides) or Euclidean ball (center, radius)."""

    kind: str
    center: tuple
    half_sides: tuple = None
    radius: float = None

    @staticmethod
    def box(center, half_sides):
        center = _finite_center(center)
        half_sides = tuple(float(h) for h in half_sides)
        if len(center) != len(half_sides):
            raise InputError("center and half_sides must have equal length")
        if not all(0 < h < math.inf for h in half_sides):
            raise InputError("half-sides must be positive and finite")
        return Region("box", center, half_sides=half_sides)

    @staticmethod
    def ball(center, radius):
        center = _finite_center(center)
        radius = float(radius)
        if not 0 < radius < math.inf:
            raise InputError("radius must be positive and finite")
        return Region("ball", center, radius=radius)

    @staticmethod
    def interval(a, b):
        """One-dimensional box [a, b]."""
        return Region.box(((a + b) / 2.0,), ((b - a) / 2.0,))

    @property
    def dimension(self):
        return len(self.center)

    def measure(self):
        if self.kind == "box":
            return math.prod(2.0 * h for h in self.half_sides)
        return unit_ball_volume(self.dimension) * self.radius ** self.dimension

    def bounding_halfwidths(self):
        if self.kind == "box":
            return self.half_sides
        return (self.radius,) * self.dimension

    def side_lengths(self):
        """Sides of the smallest enclosing axis-aligned hyperrectangle."""
        return tuple(2.0 * h for h in self.bounding_halfwidths())

    def contains(self, points):
        """Boolean mask for an (n, d) array of points (closure of the region)."""
        points = np.asarray(points, dtype=float)
        if points.ndim == 1:
            points = points[:, None]
        c = np.asarray(self.center)
        if self.kind == "box":
            h = np.asarray(self.half_sides)
            return np.all(np.abs(points - c) <= h, axis=1)
        return np.sum((points - c) ** 2, axis=1) <= self.radius ** 2

    def scaled(self, factor):
        """Image under x -> factor * x (dilation about the origin)."""
        center = tuple(factor * c for c in self.center)
        if self.kind == "box":
            return Region.box(center, tuple(factor * h for h in self.half_sides))
        return Region.ball(center, factor * self.radius)

    def to_line(self):
        parts = [self.kind] + [repr(c) for c in self.center]
        if self.kind == "box":
            parts += [repr(h) for h in self.half_sides]
        else:
            parts.append(repr(self.radius))
        return " ".join(parts)

    @staticmethod
    def from_line(line, d):
        tokens = line.split()
        if not tokens:
            raise InputError("empty region line")
        kind = tokens[0]
        try:
            vals = [float(t) for t in tokens[1:]]
        except ValueError as exc:
            raise InputError(f"{kind} line: {exc}") from None
        if kind == "box":
            if len(vals) != 2 * d:
                raise InputError(f"box line needs {2 * d} numbers, got {len(vals)}")
            return Region.box(vals[:d], vals[d:])
        if kind == "ball":
            if len(vals) != d + 1:
                raise InputError(f"ball line needs {d + 1} numbers, got {len(vals)}")
            return Region.ball(vals[:d], vals[d])
        raise InputError(f"unknown region kind {kind!r}")


def _finite_center(center):
    center = tuple(float(c) for c in center)
    if not all(math.isfinite(c) for c in center):
        raise InputError("center coordinates must be finite")
    return center


def _first_overlap(regions):
    """First pair (i, j), i < j, whose interiors cannot be certified disjoint, or None.

    Region i is tested against regions i+1.. at once.  Box/box and ball/ball
    are exact; box/ball uses the exact distance from the box to the ball
    center.  Distances are sqrt(vecdot), which rounds as a 1-D norm does.
    """
    d = regions[0].dimension
    c = np.array([r.center for r in regions])
    box = np.array([r.kind == "box" for r in regions])
    h = np.array([r.half_sides if r.kind == "box" else (0.0,) * d for r in regions])
    rad = np.array([0.0 if r.kind == "box" else r.radius for r in regions])
    for i in range(len(regions) - 1):
        rest = slice(i + 1, None)
        diff = c[i] - c[rest]
        if box[i]:
            boxes = np.any(np.abs(diff) - (h[i] + h[rest]) >= -1e-12, axis=1)
            delta = np.maximum(np.abs(diff) - h[i], 0.0)
            mixed = np.sqrt(np.vecdot(delta, delta)) >= rad[rest] - 1e-12
            ok = np.where(box[rest], boxes, mixed)
        else:
            balls = np.sqrt(np.vecdot(diff, diff)) >= rad[i] + rad[rest] - 1e-12
            delta = np.maximum(np.abs(diff) - h[rest], 0.0)
            mixed = np.sqrt(np.vecdot(delta, delta)) >= rad[i] - 1e-12
            ok = np.where(box[rest], mixed, balls)
        if not ok.all():
            return i, i + 1 + int(np.argmin(ok))
    return None


@dataclass(frozen=True)
class SensorSet:
    """Disjoint union of regions; disjointness (up to boundary touching) is verified."""

    regions: tuple

    def __post_init__(self):
        regions = tuple(self.regions)
        object.__setattr__(self, "regions", regions)
        if not regions:
            return
        d = regions[0].dimension
        for r in regions:
            if r.dimension != d:
                raise InputError("regions of mixed dimension")
        pair = _first_overlap(regions)
        if pair is not None:
            raise InputError("regions %d and %d have overlapping interiors" % pair, pair)

    @property
    def dimension(self):
        if not self.regions:
            raise InputError("empty sensor set has no dimension")
        return self.regions[0].dimension

    def measure(self):
        return sum(r.measure() for r in self.regions)

    def contains(self, points):
        points = np.asarray(points, dtype=float)
        if points.ndim == 1:
            points = points[:, None]
        mask = np.zeros(points.shape[0], dtype=bool)
        for r in self.regions:
            mask |= r.contains(points)
        return mask

    def to_text(self):
        d = self.regions[0].dimension if self.regions else 0
        lines = [f"dim={d}"]
        lines.extend(r.to_line() for r in self.regions)
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class CubeDensitySpec:
    """Per-cube density gamma^(1 + |k|^beta) on the scale-rho lattice."""

    gamma: float
    beta: float
    rho: float
    d: int

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise InputError("gamma must be strictly inside (0, 1)")
        if self.rho <= 0:
            raise InputError("rho must be positive")
        if self.beta < 0:
            raise InputError("beta must be non-negative")

    def required_ratio(self, k):
        k = np.asarray(k, dtype=float)
        return self.gamma ** (1.0 + float(np.linalg.norm(k)) ** self.beta)


@dataclass(frozen=True)
class BallDensitySpec:
    """Per-ball density gamma^(1 + |x|^alpha) at the variable scale rho(x).

    profile: "constant" uses rho(x) = R; "power" uses rho(x) = R(1+|x|^2)^((1-eps)/2),
    the largest radius allowed by the growth cap.
    """

    gamma: float
    alpha: float
    eps: float
    R: float
    profile: str = "power"

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise InputError("gamma must be strictly inside (0, 1)")
        if not 0.0 < self.eps <= 1.0:
            raise InputError("eps must lie in (0, 1]")
        if self.alpha < 0:
            raise InputError("alpha must be non-negative")
        if self.R <= 0:
            raise InputError("R must be positive")
        if self.profile not in ("constant", "power"):
            raise InputError(f"unknown radius profile {self.profile!r}")

    def radius_at(self, x):
        """rho(x) for an (n, d) array (or a single point)."""
        x = np.asarray(x, dtype=float)
        single = x.ndim <= 1
        if x.ndim == 0:
            x = x[None, None]
        elif x.ndim == 1:
            x = x[None, :]
        if self.profile == "constant":
            out = np.full(x.shape[0], self.R)
        else:
            out = self.R * (1.0 + np.sum(x * x, axis=1)) ** ((1.0 - self.eps) / 2.0)
        return float(out[0]) if single else out


@dataclass(frozen=True)
class CoveringFamily:
    """Essential covering (Q_k) with overlap bound kappa and shape parameters.

    central holds the indices of J_c.
    """

    elements: tuple
    kappa: float
    eta: float
    D: float
    eps: float
    central: tuple
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        object.__setattr__(self, "central", tuple(self.central))
        d = self.dimension
        if self.eta > d * unit_ball_volume(d) + 1e-12:
            raise InputError("eta exceeds the cap d * tau_d")

    @property
    def dimension(self):
        return self.elements[0].dimension

    def side_lengths(self, k):
        """The l_k vector of the element's enclosing hyperrectangle."""
        return self.elements[k].side_lengths()

    def validate(self, N):
        """Check the covering-shape hypotheses on the constructed family."""
        d = self.dimension
        if self.eta > d * unit_ball_volume(d) + 1e-12:
            raise InputError("eta exceeds d * tau_d")
        cap = self.D * N ** ((1.0 - self.eps) / 2.0)
        for k in self.central:
            l1 = sum(self.side_lengths(k))
            if l1 > cap * (1 + 1e-12):
                raise InputError(f"element {k}: ||l_k||_1 = {l1} exceeds D N^((1-eps)/2) = {cap}")
        return True


def fullspace_window(d, N, half=None):
    """The box [-half, half]^d standing in for R^d on E_N.

    The default half-width max(20, sqrt(2N + d) + 8) lies 8 beyond the
    classical turning radius sqrt(2N + d) of degree N.
    """
    if half is None:
        half = max(20.0, math.sqrt(2.0 * N + d) + 8.0)
    return SensorSet((Region.box((0.0,) * d, (half,) * d),))


def halfline_window(N):
    """The interval [0, 64 sqrt(N + 1)] standing in for the half-line on E_N (d = 1)."""
    return SensorSet((Region.interval(0.0, 64.0 * math.sqrt(N + 1.0)),))


def example_finite_measure_set(spec, window_radius):
    """Union of shrunken lattice cubes with side r_k = gamma^((1+|k|^beta)/d).

    Each unit cell then carries relative measure r_k^d = gamma^(1+|k|^beta),
    meeting the cube density condition with equality.  Materializes lattice
    points with |k|_inf <= window_radius.  Returns the set together with the
    exact per-cell ratios.
    """
    if window_radius <= 0:
        raise InputError("window_radius must be positive")
    if abs(spec.rho - 1.0) > 1e-15:
        raise InputError("the finite-measure example uses the unit lattice (rho = 1)")
    d = spec.d
    kmax = int(math.floor(window_radius))
    regions = []
    ratios = {}
    for k in multi_indices_window(d, kmax):
        r_k = spec.gamma ** ((1.0 + float(np.linalg.norm(k)) ** spec.beta) / d)
        regions.append(Region.box(k, (r_k / 2.0,) * d))
        ratios[k] = r_k ** d
    return SensorSet(tuple(regions)), ratios


def multi_indices_window(d, kmax):
    """Integer lattice points with |k|_inf <= kmax, deterministic order."""
    ranges = [range(-kmax, kmax + 1)] * d
    out = [()]
    for rng in ranges:
        out = [pref + (k,) for pref in out for k in rng]
    return out


@dataclass(frozen=True)
class DensityCellReport:
    cell: tuple
    measured: float
    required: float
    ok: bool


def density_check(S, spec, window_radius):
    """Exact per-lattice-cell density ratios of a box-union set against a CubeDensitySpec."""
    for r in S.regions:
        if r.kind == "ball":
            raise InputError("exact intersection volumes require box regions; rasterize balls first")
    d = spec.d
    rho = spec.rho
    kmax = int(math.floor(window_radius / rho))
    cell_volume = rho ** d
    reports = []
    for ik in multi_indices_window(d, kmax):
        k = tuple(rho * i for i in ik)
        inter = 0.0
        for r in S.regions:
            vol = 1.0
            for j in range(d):
                lo = max(k[j] - rho / 2.0, r.center[j] - r.half_sides[j])
                hi = min(k[j] + rho / 2.0, r.center[j] + r.half_sides[j])
                vol *= max(hi - lo, 0.0)
                if vol == 0.0:
                    break
            inter += vol
        measured = inter / cell_volume
        required = spec.required_ratio(k)
        reports.append(DensityCellReport(k, measured, required, measured >= required - 1e-12))
    return reports, all(rep.ok for rep in reports)


def lattice_covering(rho, d, N, kappa=1, window_margin=None):
    """Covering of the working window by lattice cubes of side rho.

    Materializes all cubes meeting B(0, C sqrt(N) + margin) with
    C = 32 d (1 + sqrt(log kappa)); J_c tags the cubes meeting B(0, C sqrt(N)).
    Parameters follow the identity-transform cube instantiation:
    eta = d^(-d/2), D = d rho, eps = 1.
    """
    if rho <= 0:
        raise InputError("rho must be positive")
    C = concentration_radius(d, kappa)
    radius = C * math.sqrt(N)
    margin = window_margin if window_margin is not None else 2.0 * rho * d
    kmax = int(math.floor((radius + margin) / rho + 0.5 * math.sqrt(d))) + 1
    half = (rho / 2.0,) * d
    ball_touch = radius + rho * math.sqrt(d) / 2.0  # center distance certifying intersection
    elements = []
    central = []
    for ik in multi_indices_window(d, kmax):
        center = tuple(rho * i for i in ik)
        if np.linalg.norm(center) > radius + margin + rho * math.sqrt(d):
            continue
        # exact cube/ball intersection test for the central tag
        delta = np.maximum(np.abs(np.asarray(center)) - rho / 2.0, 0.0)
        if np.linalg.norm(delta) < radius:
            central.append(len(elements))
        elements.append(Region.box(center, half))
    cov = CoveringFamily(
        tuple(elements),
        kappa=float(kappa),
        eta=d ** (-d / 2.0),
        D=d * rho,
        eps=1.0,
        central=tuple(central),
        meta={"C": C, "rho": rho, "N": N, "window_radius": radius + margin,
              "ball_touch": ball_touch},
    )
    cov.validate(N)
    return cov


def besicovitch_covering(spec, d, N, K=16):
    """Greedy grid-based ball covering of the concentration ball A = B(0, C sqrt(N)).

    Rasterizes A at resolution h = rho(0) / 8 and visits A's grid points in
    descending rho(.), ties in ascending flat (row-major) index; each point
    not yet covered becomes the center of a ball of radius rho(.).  The visit
    order is built band by band, never over the whole grid:

    - power profile, eps < 1: rho grows with r2 = |x|^2, and r2 strictly with
      the integer q = |i|^2 of the grid index i.  Shells of about
      _BAND_POINTS points are generated walking q downward and each is sorted
      by (-rho, flat index); the points tying a shell's smallest rho wait for
      the next shell, so a tie never straddles two shells.
    - constant radius (profile "constant", or eps = 1): flat order, in blocks
      of leading-axis rows.

    The whole-grid state is one int16 overlap count; a point is covered when
    its count is nonzero.  Once a ball holds all of A with a margin of one
    grid step, no point is left uncovered and the walk stops.
    meta["kappa_measured"] is the largest count over A's grid points; the
    assumed overlap bound kappa = K^d enters the covering parameters.
    Raises ResolutionError when the grid needs more than 40000 points per
    semi-axis or more than MAX_GRID_POINTS in all.
    """
    if N < 1:
        raise InputError("N must be at least 1")
    kappa = float(K) ** d
    C = concentration_radius(d, kappa)
    A_radius = C * math.sqrt(N)
    # radius profile minimum over A: at the origin for both admitted profiles
    rho_min = spec.radius_at(np.zeros(d))
    h = rho_min / 8.0
    n = int(math.ceil(A_radius / h))
    if n > 40000:
        raise ResolutionError(
            f"grid of {n} points per semi-axis required; refine the window or profile"
        )
    side = 2 * n + 1
    if side ** d > MAX_GRID_POINTS:
        raise ResolutionError(
            f"grid of {side ** d} points exceeds {MAX_GRID_POINTS}; refine the window or profile"
        )
    axis = np.arange(-n, n + 1) * h
    sq = axis * axis
    A2 = A_radius ** 2
    overlap = np.zeros((side,) * d, dtype=np.int16)
    overlap_flat = overlap.reshape(-1)
    if spec.profile == "power" and spec.eps < 1.0:
        bands = _shell_bands(spec, sq, d, A2, overlap_flat)
    else:
        bands = _slab_bands(float(spec.R), sq, d, A2, overlap_flat)

    centers = []
    center_radii = []
    holds_A = False
    # each band holds the points still uncovered when the greedy reaches it
    for flat, radii in bands:
        if np.any(radii < h):
            raise ResolutionError("radius profile falls below the grid resolution")
        order = np.lexsort((flat, -radii))
        flat, radii = flat[order], radii[order]
        k = 0
        while k < flat.size and not holds_A:
            # jump to the first uncovered point, one window of the band at a time
            window = overlap_flat[flat[k:k + 256]] != 0
            if window.all():
                k += window.size
                continue
            k += int(window.argmin())
            idx, r = int(flat[k]), float(radii[k])
            k += 1
            c = (np.array(np.unravel_index(idx, overlap.shape)) - n) * h
            _mark_ball(overlap, c, r, h, n)
            centers.append(c)
            center_radii.append(r)
            holds_A = float(np.linalg.norm(c)) + A_radius + h <= r
        if holds_A:
            break

    kappa_measured = max(int(overlap_flat[flat].max(initial=0))
                         for flat in _row_blocks(sq, d, A2))
    elements = tuple(Region.ball(c, r) for c, r in zip(centers, center_radii))
    cov = CoveringFamily(
        elements,
        kappa=kappa,
        eta=unit_ball_volume(d) / 2.0 ** d,
        D=4.0 * d * spec.R * C,
        eps=spec.eps,
        central=tuple(range(len(elements))),
        meta={
            "C": C,
            "A_radius": A_radius,
            "resolution": h,
            "kappa_measured": kappa_measured,
            "N": N,
            "K": K,
        },
    )
    cov.validate(N)
    return cov


def _axis_view(values, j, d):
    """values shaped to broadcast along axis j of a d-dimensional grid."""
    return values.reshape([-1 if k == j else 1 for k in range(d)])


def _row_blocks(sq, d, A2):
    """Flat indices of A's grid points, in flat order, one block of leading-axis rows at a time.

    sq holds the squared axis coordinates; r2 sums them axis by axis, as the
    membership test r2 <= A2 has always done.
    """
    side = sq.size
    row = side ** (d - 1)
    rows = max(1, _BAND_POINTS // row)
    for a in range(0, side, rows):
        r2 = sum(_axis_view(x, j, d)
                 for j, x in enumerate([sq[a:a + rows]] + [sq] * (d - 1)))
        yield np.flatnonzero(r2.ravel() <= A2) + a * row


def _slab_bands(R, sq, d, A2, overlap_flat):
    """(flat, radii) of A's uncovered grid points for a constant radius R, in flat order."""
    for flat in _row_blocks(sq, d, A2):
        flat = flat[overlap_flat[flat] == 0]
        yield flat, np.full(flat.size, R)


def _shell_bands(spec, sq, d, A2, overlap_flat):
    """(flat, radii) of A's uncovered grid points for the power profile, in bands of descending radius.

    Every radius in a band is at least every radius in the bands after it;
    the greedy sorts each band by (-radius, flat).  Points already covered
    (nonzero in overlap_flat) are dropped before their radii are computed.
    """
    p = (1.0 - spec.eps) / 2.0
    n = sq.size // 2
    # a band spans at least as many points as the prefixes it enumerates
    per_q = max(_BAND_POINTS, sq.size ** (d - 1)) / unit_ball_volume(d)
    carry_flat = np.zeros(0, dtype=np.int64)
    carry_radii = np.zeros(0)
    # q of A's outermost grid points (sq[n + 1] = h^2), with a margin for rounding
    q_hi = min(d * n * n, int(A2 / sq[n + 1] * (1.0 + 1e-9)) + 1)
    while q_hi >= 0:
        q_lo = int(max(q_hi ** (d / 2.0) - per_q, 0.0) ** (2.0 / d))
        flat, r2 = _lattice_shell(sq, d, q_lo, q_hi)
        new = (r2 <= A2) & (overlap_flat[flat] == 0)
        kept = overlap_flat[carry_flat] == 0
        flat = np.concatenate([carry_flat[kept], flat[new]])
        radii = np.concatenate([carry_radii[kept], spec.R * (1.0 + r2[new]) ** p])
        if q_lo > 0 and flat.size:
            # points below q_lo have radii <= the smallest one here: hold back its ties
            last = radii == radii.min()
            yield flat[~last], radii[~last]
            carry_flat, carry_radii = flat[last], radii[last]
        else:
            yield flat, radii
        q_hi = q_lo - 1


def _lattice_shell(sq, d, q_lo, q_hi):
    """Flat indices and r2 of the grid points i with q_lo <= |i|^2 <= q_hi.

    r2 sums the squared coordinates axis by axis, as _row_blocks does.
    """
    side = sq.size
    n = side // 2
    m = min(n, math.isqrt(q_hi))
    pre = np.indices((2 * m + 1,) * (d - 1)).reshape(d - 1, (2 * m + 1) ** (d - 1)) - m
    s = (pre * pre).sum(axis=0)
    pre, s = pre[:, s <= q_hi], s[s <= q_hi]
    pre_flat = np.zeros(s.size, dtype=np.int64)
    pre_r2 = np.zeros(s.size)
    for i in pre:
        pre_flat = pre_flat * side + (i + n)
        pre_r2 = pre_r2 + sq[i + n]
    hi = np.minimum(_isqrt(q_hi - s), n)
    below = np.maximum(q_lo - s, 0)
    lo = np.where(below > 0, _isqrt(np.maximum(below - 1, 0)) + 1, 0)
    # the last index runs over [lo, hi] and over [-hi, -max(lo, 1)]
    starts = np.concatenate([lo, -hi])
    counts = np.maximum(np.concatenate([hi - lo, hi - np.maximum(lo, 1)]) + 1, 0)
    which = np.repeat(np.arange(counts.size) % s.size, counts)
    last = (np.repeat(starts - np.cumsum(counts) + counts, counts)
            + np.arange(which.size) + n)
    return pre_flat[which] * side + last, pre_r2[which] + sq[last]


def _isqrt(x):
    """Elementwise floor(sqrt(x)) of a non-negative int64 array."""
    r = np.sqrt(x).astype(np.int64)
    r -= r * r > x
    r += (r + 1) * (r + 1) <= x
    return r


def _mark_ball(overlap, center, radius, h, n):
    """Bump the overlap count of the grid points within the ball."""
    d = len(center)
    lo = np.maximum(np.floor((center - radius) / h).astype(np.int64), -n)
    hi = np.minimum(np.ceil((center + radius) / h).astype(np.int64), n)
    box = tuple(slice(a + n, b + n + 1) for a, b in zip(lo, hi))
    dist2 = sum(_axis_view((np.arange(lo[j], hi[j] + 1) * h - center[j]) ** 2, j, d)
                for j in range(d))
    overlap[box] += dist2 <= radius ** 2

