"""Acceptance gate: the thirteen headline criteria, one pass/fail line each.

Criteria 1-12 run through the shared acceptance module; criterion 13 runs the
CLI `report` subcommand twice and compares the emitted CSV byte for byte.
"""

import time

import pytest

from hermspec import HermiteVector, acceptance, cli, control
from hermspec.cli import main


def _run(fn, *args):
    t0 = time.time()
    result = fn(*args)
    result.details += f" [{time.time() - t0:.1f}s]"
    print(result.manifest_line(), result.name, result.details)
    return result


def test_criterion_01_orthonormality():
    t0 = time.time()
    r = _run(acceptance.criterion_01)
    assert time.time() - t0 < 30.0
    assert r.passed, r.manifest_line()


def test_criterion_02_weighted_decay():
    r = _run(acceptance.criterion_02)
    assert r.passed, r.manifest_line()


def test_criterion_03_concentration():
    r = _run(acceptance.criterion_03)
    assert r.passed, r.manifest_line()


def test_criterion_04_bernstein():
    r = _run(acceptance.criterion_04)
    assert r.passed, r.manifest_line()


def test_criterion_04_fails_on_a_perturbed_ladder(monkeypatch):
    # the oracle integrates phi_k' = sqrt(2k) phi_(k-1) - x phi_k, not the ladder
    ladder = acceptance.derivative_operator

    def perturbed(f, axis):
        df = ladder(f, axis)
        return HermiteVector(df.basis, df.coeffs * (1.0 + 1e-6))

    monkeypatch.setattr(acceptance, "derivative_operator", perturbed)
    r = acceptance.criterion_04()
    assert not r.passed
    assert float(r.details.split("=")[1]) > 1e-6


def test_criterion_05_bad_mass_and_intersection():
    r = _run(acceptance.criterion_05)
    assert r.passed, r.manifest_line()


def test_criterion_06_sharp_constant_halfline():
    r = _run(acceptance.criterion_06)
    assert r.passed, r.manifest_line()


def test_criterion_07_bound_direction():
    r = _run(acceptance.criterion_07)
    assert r.passed, r.manifest_line()


def test_criterion_08_counterexample_growth():
    r = _run(acceptance.criterion_08)
    assert r.passed, r.manifest_line()


def test_criterion_09_observability_gramian():
    r = _run(acceptance.criterion_09)
    assert r.passed, r.manifest_line()
    assert r.value <= 1e-15


def _scale_s_weights(monkeypatch):
    rule = control._leggauss
    monkeypatch.setattr(control, "_leggauss", lambda n: (rule(n)[0], rule(n)[1] * (1.0 + 1e-6)))


def _shift_s_exponent(monkeypatch):
    # lam + 2 in ControlProblem's rows turns the exponent (lam - 1)/2 into (lam + 1)/2;
    # the closed form B keeps the true eigenvalues
    class Shifted(control.ControlProblem):
        lam = property(lambda self: self._lam, lambda self, v: setattr(self, "_lam", v + 2.0))

    monkeypatch.setattr(acceptance, "ControlProblem", Shifted)


def _drop_an_s_node(monkeypatch):
    rule = control._leggauss
    monkeypatch.setattr(control, "_leggauss", lambda n: rule(n - 1))


@pytest.mark.parametrize("plant, passes", [
    (_scale_s_weights, False), (_shift_s_exponent, False), (_drop_an_s_node, True),
], ids=["weights", "exponent", "one_node_fewer"])
def test_criterion_09_reads_the_factor_of_ControlProblem(monkeypatch, plant, passes):
    # One s node fewer is no fault: that rule still integrates B to rounding.
    plant(monkeypatch)
    r = acceptance.criterion_09()
    assert r.passed == passes, r.manifest_line()
    assert (r.value <= 1e-15) == passes


def test_criterion_10_hum_control():
    r = _run(acceptance.criterion_10)
    assert r.passed, r.manifest_line()


def test_criterion_11_besicovitch_covering():
    r = _run(acceptance.criterion_11)
    assert r.passed, r.manifest_line()


def test_criterion_12_scaling_identity():
    r = _run(acceptance.criterion_12)
    assert r.passed, r.manifest_line()


def test_criterion_13_determinism(tmp_path):
    cfg = tmp_path / "report.cfg"
    cfg.write_text(f"seed = {acceptance.DEFAULT_SEED}\nout_dir = {tmp_path / 'r1'}\n")
    assert main(["report", "--config", str(cfg)]) == 0
    assert main(["report", "--config", str(cfg), "--set",
                 f"out_dir={tmp_path / 'r2'}"]) == 0
    a = (tmp_path / "r1" / "report.csv").read_bytes()
    b = (tmp_path / "r2" / "report.csv").read_bytes()
    ma = (tmp_path / "r1" / "manifest.txt").read_bytes()
    mb = (tmp_path / "r2" / "manifest.txt").read_bytes()
    passed = a == b and ma == mb
    status = "pass" if passed else "FAIL"
    print(f"C13 {status} {float(passed):.17g} 1")
    assert passed
    assert b"FAIL" not in ma


def test_report_runs_two_criteria_passes(tmp_path, monkeypatch):
    # the report's own pass is the first of C13's two
    calls = []
    run_criteria = acceptance.run_criteria

    def counted(seed, ids=None):
        calls.append(seed)
        return run_criteria(seed, ids)

    monkeypatch.setattr(acceptance, "CRITERIA", {12: acceptance.criterion_12})
    monkeypatch.setattr(acceptance, "run_criteria", counted)
    monkeypatch.setattr(cli, "run_criteria", counted)
    cfg = tmp_path / "report.cfg"
    cfg.write_text(f"seed = 7\nout_dir = {tmp_path / 'r'}\n")
    assert main(["report", "--config", str(cfg)]) == 0
    assert calls == [7, 7]
    assert (tmp_path / "r" / "manifest.txt").read_text().splitlines()[-1].startswith("C13 pass")
