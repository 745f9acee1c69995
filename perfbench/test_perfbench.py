"""Self-tests of the benchmark's generators, oracle and tracer.

    python3 -m pytest -q perfbench
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
from workloads import BOX_COUNTS, MIN_ROUNDS, WORKLOADS, make_round, rounds_for  # noqa: E402


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_job_lists(workload):
    def jobs(seed):
        return json.dumps([make_round(workload, seed, i) for i in range(3)]).encode()

    assert jobs(7) == jobs(7)
    assert jobs(7) != jobs(8)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_run_length_fixes_the_round_count(workload):
    for seconds in (1, 15, 30, 60):
        k = rounds_for(workload, seconds)
        assert k >= MIN_ROUNDS.get(workload, 1)
    # box-queries cycles box counts over groups of rounds, so a run holds whole groups
    assert all(rounds_for("box-queries", s) % BOX_COUNTS == 0 for s in (1, 7, 30, 45))


def test_box_counts_cycle_once_per_group():
    counts = [len(make_round("box-queries", 5, i)[0]["regions"]) for i in range(2 * BOX_COUNTS)]
    assert sorted(counts[:BOX_COUNTS]) == sorted(counts[BOX_COUNTS:]) == list(
        range(1, BOX_COUNTS + 1))


@pytest.mark.parametrize("r", [0.3, 1.0, 1.5])
def test_centred_disc_ground_state_mass(r):
    G, err = oracle.reference_gram([("ball", (0.0, 0.0), r)], 2, 4)
    assert abs(G[0, 0] - (1.0 - math.exp(-r * r))) <= 1e-14
    assert err <= 1e-13


def test_halfline_sharp_constant_at_N1():
    # the CLI's halfline_window at N = 1 is [0, 64 sqrt(2)]
    half = 32.0 * math.sqrt(2.0)
    G, _ = oracle.reference_gram([("box", (half,), (half,))], 1, 1)
    assert abs(oracle.reference_lam_min(G) - (0.5 - 1.0 / math.sqrt(2.0 * math.pi))) <= 1e-15


def test_interval_moments_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30

    def phi(k, t):
        norm = mpmath.sqrt(2 ** k * mpmath.factorial(k) * mpmath.sqrt(mpmath.pi))
        return mpmath.exp(-t * t / 2) * mpmath.hermite(k, t) / norm

    for a, b in [(-0.7, 1.9), (-3.0, -2.5), (5.0, 9.0)]:
        M = oracle.interval_moments(20, a, b)
        for m, n in [(0, 0), (3, 7), (7, 7), (19, 20), (20, 20)]:
            ref = mpmath.quad(lambda t: phi(m, t) * phi(n, t), [a, (a + b) / 2, b])
            assert abs(float(ref) - M[m, n]) <= 1e-15


def test_box_union_is_sum_of_boxes():
    left = [("box", (-1.0, 0.5), (0.5, 0.5))]
    right = [("box", (1.0, 0.5), (0.5, 0.5))]
    union, _ = oracle.reference_gram(left + right, 2, 5)
    a, _ = oracle.reference_gram(left, 2, 5)
    b, _ = oracle.reference_gram(right, 2, 5)
    assert np.max(np.abs(union - a - b)) <= 1e-15


def test_tracer_rebinds_every_namespace_and_keeps_criterion_seeds():
    code = f"""
import sys
sys.path[:0] = [{HERE!r}, {os.path.join(os.path.dirname(HERE), "src")!r}]
import numpy as np
import hermspec.control, hermspec.spectral, hermspec.acceptance
import spans
tracer = spans.Tracer()
spans.install(tracer)
assert hermspec.control.jacobi_eigh is hermspec.spectral.jacobi_eigh
assert hermspec.acceptance.CRITERIA[2].__code__.co_argcount == 1
assert hermspec.acceptance.CRITERIA[1].__code__.co_argcount == 0
hermspec.control.jacobi_eigh(np.eye(3))
assert [s[0] for s in tracer.spans] == ["spectral.jacobi_eigh"]
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
