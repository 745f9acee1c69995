"""Acceptance gate: the thirteen headline criteria, one pass/fail line each.

Criteria 1-12 run through the shared acceptance module; criterion 13 runs the
CLI `report` subcommand twice and compares the emitted CSV byte for byte.
"""

import time

import pytest

from hermspec import HermiteVector, acceptance, cli, control, geometry
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


# The subcommand configs whose checks C01, C03-C05, C08, C10 and C11 run at
# report seed 7: each criterion draws its samples with seed 7 + its number
# (C05 reads C03's classify run), and C01 and C11 take the worst of their cases.
_BESICOVITCH = "gamma = 0.5\neps = 0.5\nR = 1.0\n"
_SUBCOMMAND_CONFIGS = {
    1: [("basis-check", "dimension = 1\ndegree_max = 20\n"),
        ("basis-check", "dimension = 2\ndegree_max = 10\n")],
    3: [("classify", "dimension = 1\ndegree_max = 10\nm_max = 5\nsamples = 100\nseed = 10\n")],
    4: [("bernstein", "dimension = 1\ndegree_max = 10\nm_max = 5\nsamples = 100\nseed = 11\n")],
    8: [("counterexample", "M = 2\nN_min = 10\nN_max = 40\n")],
    10: [("control", "dimension = 1\ndegree_max = 12\nset = finite_measure\ngamma = 0.5\n"
                     "beta = 0.5\nT = 1\nsamples = 50\nseed = 17\n")],
    11: [("besicovitch", f"dimension = {d}\ndegree_max = {N}\n" + _BESICOVITCH)
         for d, N in [(1, N) for N in range(1, 10)] + [(2, 1)]],
}


def _run_sub(out, sub, text):
    """Exit code and manifest lines {check: [status, value, tolerance]} of sub, run in out."""
    out.mkdir()
    cfg = out / "run.cfg"
    cfg.write_text(text + f"out_dir = {out}\n")
    code = main([sub, "--config", str(cfg)])
    lines = (out / "manifest.txt").read_text().splitlines()
    return code, {line.split()[0]: line.split()[1:] for line in lines}


def test_criteria_read_the_values_of_their_subcommands_checks(tmp_path):
    (tmp_path / "report.cfg").write_text(f"seed = 7\nout_dir = {tmp_path / 'report'}\n")
    assert main(["report", "--config", str(tmp_path / "report.cfg")]) == 0
    report = {line.split()[0]: line.split()[1:]
              for line in (tmp_path / "report" / "manifest.txt").read_text().splitlines()}
    details = {row.split(",")[0]: row.split(",", 5)[5]
               for row in (tmp_path / "report" / "report.csv").read_text().splitlines()}
    subs = {cid: [_run_sub(tmp_path / f"C{cid:02d}-{k}", sub, text)
                  for k, (sub, text) in enumerate(configs)]
            for cid, configs in _SUBCOMMAND_CONFIGS.items()}
    assert all(code == 0 for runs in subs.values() for code, _ in runs)

    def read(cid, name, k=0):
        return subs[cid][k][1][name]

    ortho = [read(1, "orthonormality", k) for k in range(2)]
    assert report["C01"] == max(ortho, key=lambda c: float(c[1]))
    assert report["C03"] == read(3, "far-mass")
    assert report["C04"] == read(4, "bernstein-margin")
    assert report["C05"] == read(3, "bad-mass")
    assert report["C08"][1] == read(8, "growth-monotone-superlinear")[1]
    assert report["C10"] == read(10, "worst-case-duality")
    assert details["10"].endswith(f",max_residual={read(10, 'terminal-residual')[1]}")
    ratios = [float(run[1]["overlap"][1]) / float(run[1]["overlap"][2]) for run in subs[11]]
    assert report["C11"][1] == format(max(ratios), ".17g")


def _lower_the_bernstein_constant(monkeypatch):
    CB_log = acceptance.bernstein_CB_log
    monkeypatch.setattr(acceptance, "bernstein_CB_log", lambda *args: CB_log(*args) - 5000.0)


def _drop_every_central_tag(monkeypatch):
    post_init = geometry.CoveringFamily.__post_init__

    def dropped(self):
        post_init(self)
        object.__setattr__(self, "central", ())

    monkeypatch.setattr(geometry.CoveringFamily, "__post_init__", dropped)


@pytest.mark.parametrize("plant, cid, failing", [
    (_lower_the_bernstein_constant, 4, "bernstein-margin"),
    (_scale_s_weights, 10, "terminal-residual"),
    (_drop_every_central_tag, 3, "far-mass"),
], ids=["C_B-minus-5000-nats", "s-weights", "no-central-cells"])
def test_planted_faults_fail_the_subcommand_and_its_criterion(tmp_path, monkeypatch, plant,
                                                               cid, failing):
    plant(monkeypatch)
    monkeypatch.setattr(acceptance, "_SUITE_CACHE", {})
    ((sub, text),) = _SUBCOMMAND_CONFIGS[cid]
    code, manifest = _run_sub(tmp_path / sub, sub, text)
    assert code == 1 and manifest[failing][0] == "FAIL"
    r = acceptance.CRITERIA[cid](7)
    assert not r.passed, r.manifest_line()
