"""Seeded job lists for the four workloads.

A workload is a sequence of rounds; round i is drawn from
random.Random("<workload>:<seed>:<i>") and, for the draws that set a job's
cost, from generators shared by groups of rounds, so the same seed always
gives byte-identical configs.  Every round has the same roster of job kinds
and dimensions.  Cost-setting draws are stratified: box counts run through
1..8 in a seeded order over each 8 rounds, and degrees are antithetic, the
odd round of a pair mirroring the even round's draw v in [lo, hi] to
lo + hi - v.  Each draw stays uniform, but every run of whole groups has the
same mix of costs, so its median job latency does not depend on the seed.
Nothing is rejected for being hard: every draw is used as drawn.

A run is a fixed number of whole rounds, rounds_for(workload, seconds): as
many as take about `seconds` at NOMINAL_ROUND_S, so that the same seed and
length always give the same job list, and with it the same attempted and
failed counts.

A job is a dict with the hermspec subcommand, the config text (without
out_dir) and, for jobs the oracle checks, the regions of the set.
"""

import math
import random

WORKLOADS = ("certify", "box-queries", "disc-queries", "classify")
# certify needs two reports so that their report.csv can be compared.
MIN_ROUNDS = {"certify": 2}
# Wall time of one round of each workload on a 2-core host (Python 3.11,
# OpenBLAS numpy); it only sizes a run and is never reported as a measurement.
NOMINAL_ROUND_S = {"certify": 15.4, "box-queries": 4.0, "disc-queries": 27.0, "classify": 10.0}
# sets of 1..BOX_COUNTS boxes; box-queries runs whole cycles of BOX_COUNTS rounds
BOX_COUNTS = 8
ROUND_STEP = {"box-queries": BOX_COUNTS}
N_MAX = {1: 20, 2: 10, 3: 6}


def _cfg(**kv):
    lines = []
    for key, value in kv.items():
        if key == "regions":
            lines.extend(f"region = {_region_line(r)}" for r in value)
        else:
            lines.append(f"{key} = {value!r}" if isinstance(value, float)
                         else f"{key} = {value}")
    return "\n".join(lines) + "\n"


def _region_line(region):
    kind, center, size = region
    nums = list(center) + (list(size) if kind == "box" else [size])
    return " ".join([kind] + [repr(float(v)) for v in nums])


def _job(sub, d, N, regions=None, **kv):
    text = _cfg(dimension=d, degree_max=N, **kv)
    if regions is not None and kv.get("set", "inline") == "inline":
        text += _cfg(regions=regions)
    return {"sub": sub, "d": d, "N": N, "config": text, "regions": regions}


class _Strata:
    """Stratified cost-setting draws of round `index`."""

    def __init__(self, workload, seed, index):
        self.rng = random.Random(f"{workload}:{seed}:pair{index // 2}")
        self.flip = index % 2 == 1
        self.cycle = f"{workload}:{seed}:cycle{index // BOX_COUNTS}"
        self.pos = index % BOX_COUNTS

    def randint(self, lo, hi):
        """Uniform in [lo, hi], shared by a pair of rounds and mirrored in the odd one."""
        v = self.rng.randint(lo, hi)
        return lo + hi - v if self.flip else v

    def box_count(self, d):
        """Uniform in 1..BOX_COUNTS, each value once per cycle of rounds."""
        order = random.Random(f"{self.cycle}:d{d}").sample(range(1, BOX_COUNTS + 1), BOX_COUNTS)
        return order[self.pos]


def _box_union(rng, strata, d, window=4.0):
    """1-8 disjoint boxes in [-window, window]^d, one per slab along axis 0."""
    k = strata.box_count(d)
    edges = [-window + 2.0 * window * i / k for i in range(k + 1)]
    regions = []
    for i in range(k):
        lo, hi = sorted(rng.uniform(edges[i], edges[i + 1]) for _ in range(2))
        center, half = [(lo + hi) / 2.0], [(hi - lo) / 2.0]
        for _ in range(1, d):
            a, b = sorted(rng.uniform(-window, window) for _ in range(2))
            center.append((a + b) / 2.0)
            half.append((b - a) / 2.0)
        regions.append(("box", tuple(center), tuple(half)))
    return regions


def _finite_measure_regions(d, gamma, beta, window_radius):
    """The CLI's finite_measure set: lattice boxes of side gamma^((1+|k|^beta)/d)."""
    kmax = int(math.floor(window_radius))
    points = [()]
    for _ in range(d):
        points = [p + (k,) for p in points for k in range(-kmax, kmax + 1)]
    regions = []
    for k in points:
        side = gamma ** ((1.0 + math.sqrt(sum(c * c for c in k)) ** beta) / d)
        regions.append(("box", tuple(float(c) for c in k), (side / 2.0,) * d))
    return regions


def _box_round(rng, strata):
    jobs = []
    # N-dependence sweeps: one set per dimension, every degree 1..N_max
    for d in (1, 2, 3):
        S = _box_union(rng, strata, d)
        jobs.extend(_job("spectral", d, N, S) for N in range(1, N_MAX[d] + 1))
        jobs.append(_job("gram", d, N_MAX[d], S))
    # finite-measure lattices: 9-33 boxes (d=1), 49-169 (d=2), 27-125 (d=3)
    for d, (wlo, whi) in ((1, (4.0, 16.0)), (2, (3.0, 6.99)), (3, (1.0, 2.99))):
        gamma, beta, w = rng.uniform(0.3, 0.8), rng.uniform(0.0, 1.0), rng.uniform(wlo, whi)
        N = strata.randint(1, N_MAX[d])
        regions = _finite_measure_regions(d, gamma, beta, w)
        jobs.append(_job("spectral", d, N, regions, set="finite_measure",
                         gamma=gamma, beta=beta, window_radius=w))
    # windows: the half-line and the full space
    N = strata.randint(1, N_MAX[1])
    jobs.append(_job("spectral", 1, N, [("box", (32.0 * math.sqrt(N + 1.0),),
                                         (32.0 * math.sqrt(N + 1.0),))],
                     set="halfline_window"))
    for d in (1, 2, 3):
        N = strata.randint(1, N_MAX[d])
        half = max(20.0, math.sqrt(2.0 * N + d) + 8.0)
        jobs.append(_job("spectral", d, N, [("box", (0.0,) * d, (half,) * d)],
                         set="fullspace_window"))
    return jobs


def _disc(rng, centred):
    r = rng.uniform(0.3, 1.5)
    if centred:
        return ("ball", (0.0, 0.0), r)
    angle = rng.uniform(0.0, 2.0 * math.pi)
    dist = rng.uniform(0.2, 2.0)
    return ("ball", (dist * math.cos(angle), dist * math.sin(angle)), r)


def _disc_round(rng):
    """One single-disc job (maybe beside a box) and one two-disc job.

    The degrees are N and 5 - N for N uniform in 1..4, so each is uniform and
    the round's cost, which grows with N, varies little between seeds.
    """
    first = [_disc(rng, centred=rng.random() < 0.5)]
    cx, cy = first[0][1]
    if rng.random() < 0.5:
        # a box to the right of the disc, touching at most its boundary
        lo = cx + first[0][2] + rng.uniform(0.0, 1.0)
        w, h = rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0)
        first.append(("box", (lo + w / 2.0, cy + rng.uniform(-1.0, 1.0)), (w / 2.0, h / 2.0)))
    r1, r2 = rng.uniform(0.3, 1.5), rng.uniform(0.3, 1.5)
    gap = rng.uniform(0.0, 1.0)
    angle = rng.uniform(0.0, 2.0 * math.pi)
    c1 = (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
    dist = r1 + r2 + gap
    c2 = (c1[0] + dist * math.cos(angle), c1[1] + dist * math.sin(angle))
    second = [("ball", c1, r1), ("ball", c2, r2)]
    N = rng.randint(1, 4)
    return [_job("spectral", 2, N, first), _job("spectral", 2, 5 - N, second)]


def _classify_round(rng):
    """Three passes of d=1 lattice N=1..10 and Besicovitch N=1..9, in seeded order,
    and one coarse d=2 lattice.

    Coverings use the acceptance suite's parameters (unit lattice; gamma = eps
    = 1/2, R = 1); the seeded test functions are what varies.  The three d=1
    passes give the median job latency enough samples to settle.
    """
    jobs = []
    for _ in range(3):
        for N in rng.sample(range(1, 11), 10):
            jobs.append(_job("classify", 1, N, covering="lattice", m_max=5, samples=20,
                             rho=1.0, seed=rng.randrange(2 ** 31)))
        for N in rng.sample(range(1, 10), 9):
            jobs.append(_job("classify", 1, N, covering="besicovitch", m_max=5, samples=20,
                             gamma=0.5, eps=0.5, R=1.0, seed=rng.randrange(2 ** 31)))
    jobs.append(_job("classify", 2, 1, covering="lattice", rho=8.0, m_max=3, samples=20,
                     seed=rng.randrange(2 ** 31)))
    return jobs


def rounds_for(workload, seconds):
    """Number of rounds in a run meant to last about `seconds`."""
    step = ROUND_STEP.get(workload, 1)
    k = step * round(seconds / (NOMINAL_ROUND_S[workload] * step))
    return max(MIN_ROUNDS.get(workload, 1), step, k)


def make_round(workload, seed, index):
    rng = random.Random(f"{workload}:{seed}:{index}")
    if workload == "certify":
        return [{"sub": "report", "d": None, "N": None, "config": f"seed = {seed}\n",
                 "regions": None}]
    if workload == "box-queries":
        return _box_round(rng, _Strata(workload, seed, index))
    if workload == "disc-queries":
        return _disc_round(rng)
    if workload == "classify":
        return _classify_round(rng)
    raise ValueError(f"unknown workload {workload!r}")
