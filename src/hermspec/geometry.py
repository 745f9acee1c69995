"""Sensor sets, density conditions, and essential coverings of R^d.

Sets are finite disjoint unions of axis-aligned boxes and Euclidean balls
inside a working window.  Coverings are families of such regions together with
the overlap bound kappa, the shape parameters (eta, D, eps) and the tags of
the central elements (those meeting the concentration ball B(0, C sqrt(N))).
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import concentration_radius, unit_ball_volume
from .errors import InputError, ResolutionError

# ceiling on the grid of a Besicovitch covering, its band size, and the side
# of its blocks in grid points (8 h = rho(0))
MAX_GRID_POINTS = 2 ** 27
_BAND_POINTS = 2 ** 16
_BLOCK = 8


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


def example_finite_measure_set(spec, N, window_radius=None):
    """Union of shrunken lattice cubes with side r_k = gamma^((1+|k|^beta)/d).

    Each unit cell then carries relative measure r_k^d = gamma^(1+|k|^beta),
    meeting the cube density condition with equality.  Materializes lattice
    points with |k|_inf <= window_radius, by default max(16, sqrt(2N + d) + 8):
    8 beyond the turning radius of degree N, as for fullspace_window.
    """
    if window_radius is None:
        window_radius = max(16.0, math.sqrt(2.0 * N + spec.d) + 8.0)
    if window_radius <= 0:
        raise InputError("window_radius must be positive")
    if abs(spec.rho - 1.0) > 1e-15:
        raise InputError("the finite-measure example uses the unit lattice (rho = 1)")
    d = spec.d
    kmax = int(math.floor(window_radius))
    regions = []
    for k in multi_indices_window(d, kmax):
        r_k = spec.gamma ** ((1.0 + float(np.linalg.norm(k)) ** spec.beta) / d)
        regions.append(Region.box(k, (r_k / 2.0,) * d))
    return SensorSet(tuple(regions))


def multi_indices_window(d, kmax):
    """Integer lattice points with |k|_inf <= kmax, deterministic order."""
    ranges = [range(-kmax, kmax + 1)] * d
    out = [()]
    for rng in ranges:
        out = [pref + (k,) for pref in out for k in rng]
    return out


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
    return cov


def besicovitch_covering(spec, d, N, K=16):
    """Greedy grid-based ball covering of the concentration ball A = B(0, C sqrt(N)).

    Rasterizes A at resolution h = rho(0) / 8 and visits A's grid points in
    descending rho(.), ties in ascending flat (row-major) index; each point
    not yet covered becomes the center of a ball of radius rho(.).  The visit
    order is built band by band, never over the whole grid at once:

    - power profile, eps < 1: rho grows with r2 = |x|^2, and r2 strictly with
      the integer q = |i|^2 of the grid index i.  Shells of about
      _BAND_POINTS points are generated walking q downward and each is sorted
      by (-rho, flat index); the points tying a shell's smallest rho wait for
      the next shell, so a tie never straddles two shells.
    - constant radius (profile "constant", or eps = 1): flat order, in slabs
      of leading-axis rows.

    The whole-grid state is one int16 overlap count, a point being covered
    when its count is nonzero.  The power walk also keeps one bool per block
    of _BLOCK^d grid points (_BLOCK h = rho(0)).  A block is closed once
    every point of it is covered or outside A: blocks beyond A start closed,
    and each ball closes the blocks it holds whole (_mark_ball).  A shell
    enumerates its points in open blocks only (_lattice_shell), so the
    walk's work follows the points still uncovered.  A constant-radius ball
    (8 h) seldom holds a whole block, so the slab walk keeps no blocks and
    tests every grid point.  meta["points_visited"] counts the grid points
    the walk enumerated.
    Once a ball holds all of A with a margin of one grid step, no point is
    left uncovered and the walk stops.
    meta["kappa_measured"] is the largest count over A's grid points, taken
    over A's run in each row of the last axis; the assumed overlap bound
    kappa = K^d enters the covering parameters.
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
        closed = np.zeros((-(-side // _BLOCK),) * d, dtype=bool)
        bands = _shell_bands(spec, sq, d, A2, overlap_flat, closed)
    else:
        closed = None
        bands = _slab_bands(float(spec.R), sq, d, A2, overlap_flat)

    centers = []
    center_radii = []
    holds_A = False
    visited = 0
    # each band holds the points still uncovered when the greedy reaches it
    for flat, radii, enumerated in bands:
        visited += enumerated
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
            c = axis[list(np.unravel_index(idx, overlap.shape))]
            _mark_ball(overlap, closed, axis, c, r)
            centers.append(c)
            center_radii.append(r)
            holds_A = float(np.linalg.norm(c)) + A_radius + h <= r
        if holds_A:
            break

    kappa_measured = _max_over_A(overlap_flat, sq, d, A2)
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
            "points_visited": visited,
            "N": N,
            "K": K,
        },
    )
    return cov


def _axis_view(values, j, d):
    """values shaped to broadcast along axis j of a d-dimensional grid."""
    return values.reshape([-1 if k == j else 1 for k in range(d)])


def _block_q(side, d):
    """Smallest and largest q = |i|^2 over the grid points of each block, as int32.

    Blocks are _BLOCK grid points a side, aligned at the grid's first
    corner; the last block of each axis may be shorter.  The grid ceilings
    keep q below 2^31.
    """
    first = np.arange(0, side, _BLOCK) - side // 2
    last = np.minimum(first + _BLOCK, side - side // 2) - 1
    far = np.maximum(np.abs(first), np.abs(last)) ** 2
    near = np.where((first <= 0) & (last >= 0), 0, np.minimum(np.abs(first), np.abs(last))) ** 2
    return tuple(sum(_axis_view(x.astype(np.int32), j, d) for j in range(d))
                 for x in (near, far))


def _max_over_A(overlap_flat, sq, d, A2):
    """Largest overlap count over A's grid points: one reduce over A's run in each last-axis row.

    A row's points of A are those with pre + sq[i] <= A2, where pre sums the
    squared coordinates of the leading axes axis by axis, as every
    membership test r2 <= A2 does; the run is symmetric about the row's
    middle.
    """
    side = sq.size
    n = side // 2
    pre = sum((_axis_view(sq, j, d - 1) for j in range(d - 1)), np.zeros((side,) * (d - 1)))
    pre = pre.ravel()
    # m: last offset from the middle still in A (-1 for a row that misses A)
    half = sq[n:]
    m = np.searchsorted(half, A2 - pre, side="right") - 1
    while True:  # undo the rounding of A2 - pre, one step at a time
        out = (m >= 0) & (pre + half[np.maximum(m, 0)] > A2)
        into = (m < n) & (pre + half[np.minimum(m + 1, n)] <= A2)
        if not (out.any() or into.any()):
            break
        m += into.astype(np.int64) - out
    rows = np.flatnonzero(m >= 0)
    bounds = np.stack([rows * side + n - m[rows], rows * side + n + m[rows] + 1], axis=1).ravel()
    if bounds[-1] == overlap_flat.size:
        bounds = bounds[:-1]  # the last run reaches the end of the grid
    return int(np.maximum.reduceat(overlap_flat, bounds)[::2].max())


def _slab_bands(R, sq, d, A2, overlap_flat):
    """(flat, radii, enumerated) of A's uncovered grid points for a constant radius R, in flat order.

    Bands are slabs of leading-axis rows; every grid point of a slab is
    tested (r2 <= A2 and a zero count), so enumerated is the slab's size.
    A ball of radius R = 8 h seldom holds a whole block, so blocks would
    skip nothing here.
    """
    side = sq.size
    row = side ** (d - 1)
    rows = max(1, _BAND_POINTS // row)
    for a in range(0, side, rows):
        r2 = sum(_axis_view(x, j, d) for j, x in enumerate([sq[a:a + rows]] + [sq] * (d - 1)))
        slab = overlap_flat[a * row:(a + rows) * row]
        flat = np.flatnonzero((r2.ravel() <= A2) & (slab == 0)) + a * row
        yield flat, np.full(flat.size, R), slab.size


def _shell_bands(spec, sq, d, A2, overlap_flat, closed):
    """(flat, radii, enumerated) of A's uncovered grid points for the power profile.

    Bands come in descending radius: every radius in a band is at least
    every radius in the bands after it, and the greedy sorts each band by
    (-radius, flat).  A band [q_lo, q_hi] enumerates its points in the open
    blocks whose q range meets it; closed is the block bitmap, whose blocks
    beyond A are closed here before the first band.  Points already covered
    are dropped before their radii are computed.
    """
    p = (1.0 - spec.eps) / 2.0
    n = sq.size // 2
    # q of A's outermost grid points (sq[n + 1] = h^2), with a margin for rounding
    q_hi = min(d * n * n, int(A2 / sq[n + 1] * (1.0 + 1e-9)) + 1)
    q_min, q_max = (q.reshape(-1) for q in _block_q(sq.size, d))
    closed_flat = closed.reshape(-1)
    closed_flat |= q_min > q_hi
    # open blocks in descending largest q; a band adds those reaching down to its q_lo
    order = np.flatnonzero(~closed_flat)
    order = order[np.argsort(-q_max[order])].astype(np.int32)
    tops = -q_max[order]
    added = 0
    blocks = order[:0]
    # a band spans at least as many points as a grid row
    per_q = max(_BAND_POINTS, sq.size ** (d - 1)) / unit_ball_volume(d)
    carry_flat = np.zeros(0, dtype=np.int64)
    carry_radii = np.zeros(0)
    while q_hi >= 0:
        q_lo = int(max(q_hi ** (d / 2.0) - per_q, 0.0) ** (2.0 / d))
        stop = int(np.searchsorted(tops, np.int32(-q_lo), side="right"))
        blocks = np.concatenate([blocks, order[added:stop]])
        added = stop
        blocks = blocks[~closed_flat[blocks] & (q_min[blocks] <= q_hi)]
        flat, r2 = _lattice_shell(sq, d, blocks, q_lo, q_hi)
        new = (r2 <= A2) & (overlap_flat[flat] == 0)
        kept = overlap_flat[carry_flat] == 0
        enumerated = flat.size
        flat = np.concatenate([carry_flat[kept], flat[new]])
        radii = np.concatenate([carry_radii[kept], spec.R * (1.0 + r2[new]) ** p])
        if q_lo > 0 and flat.size:
            # points below q_lo have radii <= the smallest one here: hold back its ties
            last = radii == radii.min()
            yield flat[~last], radii[~last], enumerated
            carry_flat, carry_radii = flat[last], radii[last]
        else:
            yield flat, radii, enumerated
        q_hi = q_lo - 1


def _lattice_shell(sq, d, blocks, q_lo, q_hi):
    """Flat indices and r2 of the grid points i of the given blocks with q_lo <= |i|^2 <= q_hi.

    blocks holds flat indices into the grid of blocks, taken at most
    _BAND_POINTS grid points at a time.  r2 sums the squared coordinates
    axis by axis, as every membership test r2 <= A2 does.
    """
    nb = -(-sq.size // _BLOCK)
    chunk = max(1, _BAND_POINTS // _BLOCK ** d)
    parts = [_block_rows(sq, d, np.unravel_index(blocks[s:s + chunk], (nb,) * d), q_lo, q_hi)
             for s in range(0, blocks.size, chunk)]
    if not parts:
        return np.zeros(0, dtype=np.int64), np.zeros(0)
    return tuple(np.concatenate(x) for x in zip(*parts))


def _block_rows(sq, d, coords, q_lo, q_hi):
    """_lattice_shell for the blocks at the block coordinates coords.

    Each block row (a run of _BLOCK points along the last axis) is made
    whole, and its points off the grid or outside [q_lo, q_hi] dropped.
    """
    side = sq.size
    n = side // 2
    # one entry per block row: the leading indices run over each block's _BLOCK^(d-1) rows
    rows = _BLOCK ** (d - 1)
    a = np.repeat(coords[-1] * _BLOCK, rows)
    pre_flat = np.zeros(a.size, dtype=np.int64)
    pre_r2 = np.zeros(a.size)
    s = np.zeros(a.size, dtype=np.int64)
    inside = np.ones(a.size, dtype=bool)
    for b, o in zip(coords[:-1], np.indices((_BLOCK,) * (d - 1)).reshape(d - 1, rows)):
        i = (b[:, None] * _BLOCK + o).ravel()
        inside &= i < side
        i = np.minimum(i, side - 1)
        pre_flat = pre_flat * side + i
        pre_r2 = pre_r2 + sq[i]
        s = s + (i - n) ** 2
    last = a[:, None] + np.arange(_BLOCK)
    q = s[:, None] + (last - n) ** 2
    keep = inside[:, None] & (last < side) & (q >= q_lo) & (q <= q_hi)
    last = np.minimum(last, side - 1)
    return (pre_flat[:, None] * side + last)[keep], (pre_r2[:, None] + sq[last])[keep]


def _mark_ball(overlap, closed, axis, center, radius):
    """Bump the overlap count of the grid points within the ball; close the blocks it fills.

    A point i is within when the terms (i_j h - c_j)**2, summed in axis
    order, total at most radius**2.  A block closes when the largest term of
    its points along each axis passes the same test: float addition is
    monotone, so every point of a closed block was counted.  closed is None
    when the walk keeps no blocks.
    """
    n = axis.size // 2
    h = axis[n + 1]
    r2 = radius ** 2
    box, terms = [], []
    for c in center.tolist():
        lo = max(math.floor((c - radius) / h), -n) + n
        hi = min(math.ceil((c + radius) / h), n) + n + 1
        box.append(slice(lo, hi))
        terms.append((axis[lo:hi] - c) ** 2)
    overlap[tuple(box)] += functools.reduce(np.add.outer, terms) <= r2
    if closed is None:
        return
    # per axis, the blocks lying wholly in [lo, hi) and the largest term over each
    blocks, tops = [], []
    for s, t in zip(box, terms):
        b = slice(-(-s.start // _BLOCK), s.stop // _BLOCK if s.stop < axis.size else closed.shape[0])
        if b.start >= b.stop:
            return
        blocks.append(b)
        tops.append(np.maximum.reduceat(t[b.start * _BLOCK - s.start:b.stop * _BLOCK - s.start],
                                        np.arange(0, (b.stop - b.start) * _BLOCK, _BLOCK)))
    closed[tuple(blocks)] |= functools.reduce(np.add.outer, tops) <= r2
