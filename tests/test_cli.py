import os
import tracemalloc
import warnings

import pytest

from hermspec import BasisIndexSet, Region, SensorSet, acceptance, cli, gram, spectral
from hermspec.basis import HermiteVector
from hermspec.cli import main, parse_config
from hermspec.errors import ConfigError, QuadratureError
from hermspec.spectral import CellContext
from mpmath_reference import mpmath_log_window_norm
from reference_loops import LoopCellContext, derivative_operator_loop, embedded_loop


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_parse_config_basics():
    cfg = parse_config(
        "# comment\n"
        "dimension = 1\n"
        "degree_max = 3  # trailing comment\n"
        "T = 0.5\n"
        "region = box 0.0 1.0\n"
        "region = ball 5.0 0.5\n"
    )
    assert cfg["dimension"] == 1
    assert cfg["degree_max"] == 3
    assert cfg["T"] == 0.5
    assert cfg["region"] == [("line 5", "box 0.0 1.0"), ("line 6", "ball 5.0 0.5")]


def test_parse_config_unknown_key():
    with pytest.raises(ConfigError) as exc:
        parse_config("dimension = 1\nbogus = 2\n")
    assert exc.value.line == 2


def test_parse_config_missing_equals():
    with pytest.raises(ConfigError) as exc:
        parse_config("dimension 1\n")
    assert exc.value.line == 1


def test_parse_config_bad_value():
    with pytest.raises(ConfigError) as exc:
        parse_config("dimension = one\n")
    assert exc.value.line == 1


def test_cli_exit_2_on_parse_error(tmp_path, capsys):
    cfg = write(tmp_path, "bad.cfg", "nonsense = 1\n")
    assert main(["spectral", "--config", cfg]) == 2
    assert "line 1" in capsys.readouterr().err


def test_cli_exit_2_on_missing_file(tmp_path):
    assert main(["spectral", "--config", str(tmp_path / "nope.cfg")]) == 2


@pytest.mark.parametrize("regions, message", [
    (["box 0.0 -1.0"], "'box 0.0 -1.0'"),
    (["ball 0.0 0.0"], "'ball 0.0 0.0'"),
    (["box nan 1.0"], "'box nan 1.0'"),
    (["box 0.0 2.0", "box 1.0 2.0"], "overlapping"),
])
def test_cli_exit_2_on_bad_region(tmp_path, capsys, regions, message):
    cfg = write(tmp_path, "r.cfg", (
        "dimension = 1\n"
        "degree_max = 1\n"
        + "".join(f"region = {r}\n" for r in regions)
        + f"out_dir = {tmp_path / 'out'}\n"
    ))
    assert main(["spectral", "--config", cfg]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("d, region", [
    (1, "ball 0.0 1e15"), (2, "ball 0 0 1e15"), (1, "box 0.0 1e15"), (2, "box 0 0 1.0 1e15"),
])
def test_cli_exit_2_on_region_too_large_to_integrate(tmp_path, capsys, d, region):
    cfg = write(tmp_path, "huge.cfg", (
        f"dimension = {d}\n"
        "degree_max = 2\n"
        f"region = {region}\n"
        f"out_dir = {tmp_path / 'out'}\n"
    ))
    assert main(["spectral", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {region.split()[0]} (") and "1024 panels per axis" in err


@pytest.mark.parametrize("subcommand", ["gram", "spectral", "control"])
def test_cli_overlap_error_names_both_config_lines(tmp_path, capsys, subcommand):
    cfg = write(tmp_path, "ov.cfg", (
        "dimension = 1\n"
        "degree_max = 1\n"
        "region = box 0.0 2.0\n"
        "region = box 5.0 0.5\n"
        "region = box 1.0 2.0\n"
        f"out_dir = {tmp_path / 'out'}\n"
    ))
    assert main([subcommand, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "overlapping interiors" in err
    assert "(line 3: region 'box 0.0 2.0' and line 5: region 'box 1.0 2.0')" in err


@pytest.mark.parametrize("subcommand", ["gram", "spectral", "control"])
def test_cli_size_cap_error_names_its_config_line(tmp_path, capsys, subcommand):
    cfg = write(tmp_path, "huge.cfg", (
        "dimension = 1\n"
        "degree_max = 2\n"
        "region = box 2e15 0.5\n"
        "# a comment line still counts\n"
        "region = ball 0.0 1e15\n"
        f"out_dir = {tmp_path / 'out'}\n"
    ))
    assert main([subcommand, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "1024 panels per axis" in err
    assert err.rstrip().endswith("(line 5: region 'ball 0.0 1e15')")


def test_cli_exit_1_on_quadrature_failure(tmp_path, capsys, monkeypatch):
    # no tolerance below roundoff can be met: every doubling is one more failure
    monkeypatch.setattr(gram, "NODES", 1)
    monkeypatch.setattr(gram, "QUAD_TOL", 1e-300)
    cfg = write(tmp_path, "q.cfg", (
        "dimension = 1\n"
        "degree_max = 2\n"
        "region = box 0.0 1.0\n"
        f"out_dir = {tmp_path / 'out'}\n"
    ))
    assert main(["spectral", "--config", cfg]) == 1
    assert "verification failure: no convergence" in capsys.readouterr().err


def test_cli_exit_1_on_unreachable_tolerance_at_default_nodes(tmp_path, capsys, monkeypatch):
    # doubling from the default NODES stops at the node ceiling
    monkeypatch.setattr(gram, "QUAD_TOL", 1e-20)
    cfg = write(tmp_path, "q.cfg", (
        "dimension = 1\n"
        "degree_max = 2\n"
        "region = box 0.0 1.0\n"
        f"out_dir = {tmp_path / 'out'}\n"
    ))
    assert main(["spectral", "--config", cfg]) == 1
    assert "verification failure: no convergence at 2048 nodes" in capsys.readouterr().err


def _drop_last_region(monkeypatch):
    factor = gram._set_factor
    monkeypatch.setattr(gram, "_set_factor", lambda basis, regions, nodes:
                        factor(basis, regions[:-1], nodes))


def _scale_gauss_weights(monkeypatch):
    rule = gram._leggauss
    monkeypatch.setattr(gram, "_leggauss", lambda n: (rule(n)[0], rule(n)[1] * (1.0 + 1e-6)))


@pytest.mark.parametrize("plant", [_drop_last_region, _scale_gauss_weights])
@pytest.mark.parametrize("regions", [
    ["box -1.5 0.0 1.0 1.0", "box 1.5 0.5 0.4 0.8"],
    ["ball 0.3 -0.2 0.9"],
    ["ball 0.3 -0.2 0.9", "box 2.4 0.0 0.5 0.6"],
], ids=["box_pair", "disc", "disc_and_box"])
def test_planted_quadrature_faults_fail_the_gram_check(tmp_path, capsys, monkeypatch, plant,
                                                       regions):
    # A factor that misses a region or weighs every node 1e-6 too much agrees
    # with itself at twice the nodes, but not with the closed-form reference.
    # Doubling stops at 128 nodes here, so each failure is quick.
    plant(monkeypatch)
    monkeypatch.setattr(gram, "MAX_NODES", 128)
    S = SensorSet(tuple(Region.from_line(line, 2) for line in regions))
    with pytest.raises(QuadratureError, match="no convergence at 128 nodes"):
        gram.gram_over_set(BasisIndexSet(2, 3), S)
    cfg = write(tmp_path, "q.cfg", "dimension = 2\ndegree_max = 3\n" + "".join(
        f"region = {line}\n" for line in regions) + f"out_dir = {tmp_path / 'out'}\n")
    for sub in ("spectral", "gram"):
        assert main([sub, "--config", cfg]) == 1
        assert "verification failure: no convergence" in capsys.readouterr().err


def test_finite_measure_default_window_clears_the_turning_radius(tmp_path):
    # At N = 160 the turning radius sqrt(2N + 1) = 17.9 passes the old fixed
    # window 16, which gave lam_min 1.2590e-13; windows 24 and 32 agree with
    # the default sqrt(321) + 8 = 25.9 to 1e-11.
    cfg = write(tmp_path, "w.cfg", (
        "dimension = 1\n"
        "degree_max = 160\n"
        "set = finite_measure\n"
        "gamma = 0.5\n"
        "beta = 0.5\n"
        f"out_dir = {tmp_path / 'out'}\n"
    ))
    assert main(["spectral", "--config", cfg]) == 0
    rows = (tmp_path / "out" / "spectral.csv").read_text().splitlines()
    assert float(rows[1].split(",")[3]) == pytest.approx(3.24071847e-12, rel=1e-6)


def test_spectral_halfline_example(tmp_path):
    cfg = write(tmp_path, "s.cfg", (
        "dimension = 1\n"
        "degree_max = 1\n"
        "set = halfline_window\n"
        f"out_dir = {tmp_path / 'out'}\n"
    ))
    assert main(["spectral", "--config", cfg]) == 0
    rows = (tmp_path / "out" / "spectral.csv").read_text().splitlines()
    lam = float(rows[1].split(",")[3])
    assert abs(lam - 0.10105771959) < 1e-5
    manifest = (tmp_path / "out" / "manifest.txt").read_text()
    assert "pass" in manifest


def test_decay_ground_state_example(tmp_path):
    cfg = write(tmp_path, "d.cfg", (
        "dimension = 1\n"
        "degree_max = 0\n"
        "samples = 1\n"
        f"out_dir = {tmp_path / 'out'}\n"
    ))
    assert main(["decay", "--config", cfg]) == 0
    rows = (tmp_path / "out" / "decay.csv").read_text().splitlines()
    ratio = float(rows[1].split(",")[1])
    assert abs(ratio - 1.0160) < 1e-3  # sqrt(32/31)
    assert float(rows[1].split(",")[2]) == 16.0


def test_counterexample_monotone_superlinear(tmp_path):
    cfg = write(tmp_path, "c.cfg", (
        "M = 2\n"
        "N_min = 10\n"
        "N_max = 40\n"
        f"out_dir = {tmp_path / 'out'}\n"
    ))
    assert main(["counterexample", "--config", cfg]) == 0
    rows = (tmp_path / "out" / "counterexample.csv").read_text().splitlines()[1:]
    ratios = [float(r.split(",")[3]) for r in rows]
    assert len(ratios) == 31
    diffs = [b - a for a, b in zip(ratios, ratios[1:])]
    assert all(d2 > d1 for d1, d2 in zip(diffs, diffs[1:]))  # super-linear growth


@pytest.mark.parametrize("M", [0.5, 5.0, 30.0])
def test_counterexample_window_norms_match_mpmath(tmp_path, M):
    # series below M^2 = N + 3/2, the complement's continued fraction above
    cfg = write(tmp_path, "c.cfg", f"M = {M}\nN_min = 10\nN_max = 40\nout_dir = {tmp_path / 'out'}\n")
    # at M = 30 the window holds all of the norm to double precision, so the
    # log ratios are 0 and the growth check fails (exit 1); the norms are still written
    assert main(["counterexample", "--config", cfg]) == (1 if M == 30.0 else 0)
    rows = (tmp_path / "out" / "counterexample.csv").read_text().splitlines()[1:]
    assert len(rows) == 31
    for row in rows:
        N, _, log_restricted, _ = row.split(",")
        assert abs(float(log_restricted) - mpmath_log_window_norm(int(N), M)) <= 1e-13


def test_gram_subcommand_inline_set(tmp_path):
    cfg = write(tmp_path, "g.cfg", (
        "dimension = 1\n"
        "degree_max = 2\n"
        "set = inline\n"
        "region = box 0.5 0.5\n"
        f"out_dir = {tmp_path / 'out'}\n"
    ))
    assert main(["gram", "--config", cfg]) == 0
    assert (tmp_path / "out" / "gram.csv").exists()


def test_gram_manifest_reads_the_reference_gap(tmp_path):
    regions = ("box -1.5 0.0 1.0 1.0", "box 1.5 0.5 0.4 0.8")
    cfg = write(tmp_path, "g.cfg", "dimension = 2\ndegree_max = 3\n" + "".join(
        f"region = {line}\n" for line in regions) + f"out_dir = {tmp_path / 'out'}\n")
    assert main(["gram", "--config", cfg]) == 0
    name, status, value, tol = (tmp_path / "out" / "manifest.txt").read_text().split()
    S = SensorSet(tuple(Region.from_line(line, 2) for line in regions))
    gap = gram.gram_over_set(BasisIndexSet(2, 3), S).reference_gap
    assert (name, status, float(tol)) == ("gram-reference", "pass", gram.QUAD_TOL)
    assert float(value) == gap <= 1e-11


def test_override_flag(tmp_path):
    cfg = write(tmp_path, "o.cfg", (
        "dimension = 1\n"
        "degree_max = 1\n"
        "set = halfline_window\n"
        f"out_dir = {tmp_path / 'a'}\n"
    ))
    assert main(["spectral", "--config", cfg, "--set",
                 f"out_dir={tmp_path / 'b'}"]) == 0
    assert (tmp_path / "b" / "spectral.csv").exists()
    assert not (tmp_path / "a").exists()


def test_determinism_byte_identical(tmp_path):
    cfg = write(tmp_path, "det.cfg", (
        "dimension = 1\n"
        "degree_max = 6\n"
        "seed = 99\n"
        "samples = 5\n"
        f"out_dir = {tmp_path / 'r1'}\n"
    ))
    assert main(["decay", "--config", cfg]) == 0
    assert main(["decay", "--config", cfg, "--set",
                 f"out_dir={tmp_path / 'r2'}"]) == 0
    a = (tmp_path / "r1" / "decay.csv").read_bytes()
    b = (tmp_path / "r2" / "decay.csv").read_bytes()
    assert a == b


def test_control_subcommand(tmp_path):
    cfg = write(tmp_path, "ctl.cfg", (
        "dimension = 1\n"
        "degree_max = 4\n"
        "set = inline\n"
        "region = box 0.0 1.5\n"
        "T = 1.0\n"
        "samples = 3\n"
        f"out_dir = {tmp_path / 'out'}\n"
    ))
    assert main(["control", "--config", cfg]) == 0
    assert (tmp_path / "out" / "control.csv").exists()
    assert (tmp_path / "out" / "trajectory.csv").exists()


def test_control_exit_1_on_unobservable_set(tmp_path, capsys):
    # a thin box far out in the Gaussian tail: R_S is about 1e-196, so the HUM
    # solve overflows; that leaves as the typed error, with no warning and no inf
    cfg = write(tmp_path, "ctl.cfg", (
        "dimension = 1\n"
        "degree_max = 3\n"
        "region = box 30.0 0.1\n"
        f"out_dir = {tmp_path / 'out'}\n"
    ))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["control", "--config", cfg]) == 1
    assert ("verification failure: the observability Gramian is numerically singular"
            in capsys.readouterr().err)
    manifest = tmp_path / "out" / "manifest.txt"
    assert not manifest.exists() or "inf" not in manifest.read_text()


def test_bounds_subcommand(tmp_path):
    cfg = write(tmp_path, "b.cfg", (
        "dimension = 1\n"
        "degree_max = 4\n"
        "gamma = 0.5\n"
        "beta = 0.5\n"
        "rho = 1.0\n"
        "D = 1.0\n"
        "eta = 1.0\n"
        f"out_dir = {tmp_path / 'out'}\n"
    ))
    assert main(["bounds", "--config", cfg]) == 0
    text = (tmp_path / "out" / "bounds.csv").read_text()
    assert "general" in text and "cubes" in text


def test_classify_subcommand(tmp_path):
    cfg = write(tmp_path, "cl.cfg", (
        "dimension = 1\n"
        "degree_max = 6\n"
        "m_max = 3\n"
        "samples = 3\n"
        "covering = lattice\n"
        f"out_dir = {tmp_path / 'out'}\n"
    ))
    assert main(["classify", "--config", cfg]) == 0
    rows = (tmp_path / "out" / "classify.csv").read_text().splitlines()
    assert len(rows) == 4


def test_besicovitch_subcommand(tmp_path):
    cfg = write(tmp_path, "bes.cfg", (
        "dimension = 1\n"
        "degree_max = 2\n"
        "gamma = 0.5\n"
        "eps = 0.5\n"
        "R = 1.0\n"
        f"out_dir = {tmp_path / 'out'}\n"
    ))
    assert main(["besicovitch", "--config", cfg]) == 0
    rows = (tmp_path / "out" / "besicovitch.csv").read_text().splitlines()
    assert rows[0] == "index,c0,radius,central"
    assert len(rows) > 2


def test_besicovitch_exit_2_on_unresolvable_radius(tmp_path, capsys):
    cfg = write(tmp_path, "bes.cfg", (
        "dimension = 1\n"
        "degree_max = 2\n"
        "gamma = 0.5\n"
        "eps = 0.5\n"
        "R = 1e-6\n"
        f"out_dir = {tmp_path / 'out'}\n"
    ))
    assert main(["besicovitch", "--config", cfg]) == 2
    assert "config error: grid of" in capsys.readouterr().err


def test_control_exit_2_on_nonpositive_horizon(tmp_path, capsys):
    cfg = write(tmp_path, "ctl.cfg", (
        "dimension = 1\n"
        "degree_max = 4\n"
        "region = box 0.0 1.5\n"
        "T = 0.0\n"
        f"out_dir = {tmp_path / 'out'}\n"
    ))
    assert main(["control", "--config", cfg]) == 2
    assert "config error: T must be positive" in capsys.readouterr().err


def test_basis_check_subcommand(tmp_path):
    cfg = write(tmp_path, "bc.cfg", (
        "dimension = 2\n"
        "degree_max = 3\n"
        f"out_dir = {tmp_path / 'out'}\n"
    ))
    assert main(["basis-check", "--config", cfg]) == 0
    manifest = (tmp_path / "out" / "manifest.txt").read_text()
    assert "FAIL" not in manifest and "ladder-norm pass" in manifest


def test_basis_check_fails_on_a_perturbed_ladder(tmp_path, monkeypatch):
    def perturbed(f, axis):
        df = derivative_operator_loop(f, axis)
        return HermiteVector(df.basis, df.coeffs * (1.0 + 1e-8))

    monkeypatch.setattr(cli, "derivative_operator", perturbed)
    cfg = write(tmp_path, "bc.cfg",
                f"dimension = 2\ndegree_max = 3\nout_dir = {tmp_path / 'out'}\n")
    assert main(["basis-check", "--config", cfg]) == 1
    assert "ladder-norm FAIL" in (tmp_path / "out" / "manifest.txt").read_text()


_BOX = "dimension = 1\ndegree_max = 2\nregion = box 0.0 1.0\n"


@pytest.mark.parametrize("sub, config, overrides, key, where", [
    ("spectral", _BOX, ["nodes=abc"], "nodes", "--set 'nodes=abc'"),
    ("besicovitch", "dimension = 1\ndegree_max = 2\ngamma = 0.5\nR = inf\n", [], "R", "line 4"),
    ("bernstein", "dimension = 1\ndegree_max = 3\ndelta = nan\n", [], "delta", "line 3"),
    ("bernstein", "dimension = 1\ndegree_max = 3\nm_max = 0\n", [], "m_max", "line 3"),
    ("decay", "dimension = 1\ndegree_max = 3\nsamples = 0\n", [], "samples", "line 3"),
    # covering is checked where classify consumes it, so no line is named
    ("classify", "dimension = 1\ndegree_max = 2\ncovering = besicovich\n", [], "covering", ""),
    ("control", _BOX + "T = nan\n", [], "T", "line 4"),
    ("spectral", _BOX + "quad_tol = nan\n", [], "quad_tol", "line 4"),
    # gram.py owns the node count and the tolerance: even their defaults are unknown keys
    ("spectral", _BOX + "nodes = 64\n", [], "unknown key 'nodes'", "line 4"),
    ("spectral", _BOX, ["quad_tol=1e-11"], "unknown key 'quad_tol'", "--set 'quad_tol=1e-11'"),
    ("counterexample", "M = 2\nN_min = 1\nN_max = 1\n", [], "N_max", ""),
    ("counterexample", "M = 2\nN_min = 20\nN_max = 10\n", [], "N_max", ""),
    # counts are checked as they are read: dimension and K from 1, degrees from 0
    ("decay", "dimension = 0\ndegree_max = 3\n", [], "'dimension'", "line 1"),
    ("besicovitch", "dimension = 0\ndegree_max = 2\ngamma = 0.5\n", [], "'dimension'", "line 1"),
    ("besicovitch", "dimension = -1\ndegree_max = 2\ngamma = 0.5\n", [], "'dimension'",
     "line 1"),
    ("bounds", "dimension = -1\ndegree_max = 2\ngamma = 0.5\n", [], "'dimension'", "line 1"),
    ("classify", "dimension = 1\ndegree_max = 2\ncovering = besicovitch\ngamma = 0.5\nK = 0\n",
     [], "'K'", "line 5"),
    ("spectral", _BOX, ["degree_max=-1"], "'degree_max'", "--set 'degree_max=-1'"),
    ("counterexample", "M = 2\n", ["N_min=-3"], "'N_min'", "--set 'N_min=-3'"),
    ("counterexample", "M = 2\nN_max = -1\n", [], "'N_max'", "line 2"),
], ids=["set-nodes-abc", "R-inf", "delta-nan", "m_max-0", "samples-0", "covering-typo",
        "T-nan", "quad_tol-nan", "nodes-unknown", "set-quad_tol-unknown", "N-range-1..1",
        "N-range-20..10", "decay-dimension-0", "besicovitch-dimension-0",
        "besicovitch-dimension--1", "bounds-dimension--1", "K-0", "set-degree_max--1",
        "set-N_min--3", "N_max--1"])
def test_cli_exit_2_on_bad_input(tmp_path, capsys, sub, config, overrides, key, where):
    cfg = write(tmp_path, "p.cfg", config + f"out_dir = {tmp_path / 'out'}\n")
    argv = [sub, "--config", cfg]
    for item in overrides:
        argv += ["--set", item]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and key in err and where in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kappa, code", [("1.9", 2), ("2", 0)])
def test_classify_takes_only_an_integer_kappa(tmp_path, capsys, kappa, code):
    cfg = write(tmp_path, "k.cfg", (
        "dimension = 1\ndegree_max = 3\nm_max = 2\nsamples = 2\n"
        f"kappa = {kappa}\nout_dir = {tmp_path / 'out'}\n"
    ))
    assert main(["classify", "--config", cfg]) == code
    err = capsys.readouterr().err
    if code == 2:
        assert err.startswith("config error: ") and "'kappa'" in err and "1.9" in err
        assert not (tmp_path / "out").exists()
    else:
        assert (tmp_path / "out" / "classify.csv").exists()


def test_set_and_config_line_give_the_same_cfg():
    items = ["dimension=2", "T=0.5", "samples=3", "set=inline", "region=box 0.0 0.0 1.0 1.0"]
    from_file = parse_config("".join(i.replace("=", " = ", 1) + "\n" for i in items))
    from_set = parse_config("", items)
    assert [v for _, v in from_file.pop("region")] == [v for _, v in from_set.pop("region")]
    assert from_file == from_set
    assert [type(from_set[k]) for k in ("dimension", "T", "samples")] == [int, float, int]
    for bad in ("samples=0", "T=inf", "K=1.5"):
        with pytest.raises(ConfigError, match=bad.split("=")[0]):
            parse_config(bad.replace("=", " = ") + "\n")
        with pytest.raises(ConfigError, match=bad.split("=")[0]):
            parse_config("", [bad])


@pytest.mark.parametrize("sub", ["classify", "report"])
def test_cells_are_built_at_CELL_NODES(tmp_path, monkeypatch, sub):
    # classify and report's lattice suite build their cells at 48 nodes, read at call time
    built = []

    class RecordingContext(CellContext):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(acceptance, "CellContext", RecordingContext)
    if sub == "classify":
        cfg = write(tmp_path, "cl.cfg", (
            "dimension = 1\n"
            "degree_max = 4\n"
            "m_max = 2\n"
            "samples = 2\n"
            f"out_dir = {tmp_path / 'out'}\n"
        ))
        assert main(["classify", "--config", cfg]) == 0
    else:
        monkeypatch.setattr(acceptance, "_SUITE_CACHE", {})
        acceptance.lattice_suite(7)
    assert gram.CELL_NODES == 48 and len(built) == 1
    ctx = built[0]
    want = gram.region_triangles(ctx.eval_basis, ctx.covering.elements, 48)
    assert ctx.triangles.tobytes() == want.tobytes()
    monkeypatch.setattr(gram, "CELL_NODES", 8)
    ctx = CellContext(ctx.covering, ctx.eval_basis.dimension, ctx.eval_basis.max_degree)
    want = gram.region_triangles(ctx.eval_basis, ctx.covering.elements, 8)
    assert ctx.triangles.tobytes() == want.tobytes()


def _run_loop_reference(tmp_path, monkeypatch, sub, text):
    """Outputs of sub on text with the array code, then with the loop forms patched in."""
    def run(name):
        out = tmp_path / name
        cfg = write(tmp_path, f"{name}.cfg",
                    f"dimension = 1\nsamples = 12\nout_dir = {out}\n" + text)
        assert main([sub, "--config", cfg]) == 0
        return {p: (out / p).read_text() for p in (f"{sub}.csv", "manifest.txt")}

    fast = run("fast")
    monkeypatch.setattr(acceptance, "CellContext", LoopCellContext)
    monkeypatch.setattr(spectral, "derivative_operator", derivative_operator_loop)
    monkeypatch.setattr(HermiteVector, "embedded", embedded_loop)
    return fast, run("loops")


@pytest.mark.parametrize("sub, text", [
    ("bernstein", "degree_max = 12\nm_max = 6\nseed = 23\n"),
])
def test_cli_outputs_match_the_loop_reference_byte_for_byte(tmp_path, monkeypatch, sub, text):
    fast, loops = _run_loop_reference(tmp_path, monkeypatch, sub, text)
    assert loops == fast


@pytest.mark.parametrize("text", [
    # delta = 1 turns cells with nonzero mass bad, so bad_mass_fraction has digits
    "covering = lattice\ndegree_max = 8\nm_max = 5\nseed = 21\ndelta = 1.0\n",
    "covering = besicovitch\ndegree_max = 6\nm_max = 4\nseed = 22\n"
    "gamma = 0.5\neps = 0.5\nR = 1.0\n",
], ids=["lattice", "besicovitch"])
def test_classify_outputs_match_the_loop_reference(tmp_path, monkeypatch, text):
    """Cell counts and flips agree exactly; mass fractions to rounding of the cell norms."""
    fast, loops = _run_loop_reference(tmp_path, monkeypatch, "classify", text)
    assert [line.split()[:2] for line in fast["manifest.txt"].splitlines()] == [
        line.split()[:2] for line in loops["manifest.txt"].splitlines()]
    rows = [[line.split(",") for line in out["classify.csv"].splitlines()]
            for out in (fast, loops)]
    assert rows[0][0] == rows[1][0] and len(rows[0]) == len(rows[1]) == 13
    for got, want in zip(rows[0][1:], rows[1][1:]):
        assert got[0] == want[0] and got[3:] == want[3:]  # sample, good_cells, max_flip_m
        assert [float(v) for v in got[1:3]] == pytest.approx([float(v) for v in want[1:3]],
                                                             rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("d, N, m_max, rho", [(2, 4, 3, 8.0), (3, 1, 2, 16.0)])
def test_classify_lattice_in_d2_and_d3_within_64_mb(tmp_path, d, N, m_max, rho):
    cfg = write(tmp_path, "cl.cfg", (
        f"dimension = {d}\ndegree_max = {N}\nm_max = {m_max}\nrho = {rho}\nsamples = 2\n"
        f"covering = lattice\nout_dir = {tmp_path / 'out'}\n"
    ))
    tracemalloc.start()
    try:
        assert main(["classify", "--config", cfg]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # d = 3 holds 35 MB of cell triangles and peaks near 42 MB
    assert peak < 48 * 2 ** 20
    rows = (tmp_path / "out" / "classify.csv").read_text().splitlines()
    assert len(rows) == 3


def test_cli_manifest_names_each_check(tmp_path):
    cfg = write(tmp_path, "s.cfg", (
        "dimension = 1\n"
        "degree_max = 1\n"
        "set = halfline_window\n"
        f"out_dir = {tmp_path / 'out'}\n"
    ))
    assert main(["spectral", "--config", cfg]) == 0
    manifest = (tmp_path / "out" / "manifest.txt").read_text().split()
    assert manifest[:2] == ["spectral-positive", "pass"] and manifest[3] == "0"


def test_cli_names_the_subcommand_of_a_missing_key(tmp_path, capsys):
    cfg = write(tmp_path, "m.cfg", "dimension = 1\n")
    assert main(["spectral", "--config", cfg]) == 2
    assert "missing required key 'degree_max' for subcommand 'spectral'" in (
        capsys.readouterr().err)
