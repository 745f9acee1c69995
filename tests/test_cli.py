import os

import pytest

from hermspec.cli import main, parse_config
from hermspec.errors import ConfigError


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
    assert cfg["region"] == ["box 0.0 1.0", "ball 5.0 0.5"]


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


def test_cli_exit_1_on_quadrature_failure(tmp_path, capsys):
    # no tolerance below roundoff can be met: every doubling is one more failure
    cfg = write(tmp_path, "q.cfg", (
        "dimension = 1\n"
        "degree_max = 2\n"
        "region = box 0.0 1.0\n"
        f"out_dir = {tmp_path / 'out'}\n"
    ))
    assert main(["spectral", "--config", cfg, "--set", "nodes=1",
                 "--set", "quad_tol=1e-300"]) == 1
    assert "verification failure: no convergence" in capsys.readouterr().err


def test_cli_exit_1_on_unreachable_tolerance_at_default_nodes(tmp_path, capsys):
    # doubling from the default 64 nodes stops at the node ceiling
    cfg = write(tmp_path, "q.cfg", (
        "dimension = 1\n"
        "degree_max = 2\n"
        "region = box 0.0 1.0\n"
        f"out_dir = {tmp_path / 'out'}\n"
    ))
    assert main(["spectral", "--config", cfg, "--set", "quad_tol=1e-20"]) == 1
    assert "no convergence at 2048 nodes" in capsys.readouterr().err


def test_cli_exit_2_on_nodes_above_ceiling(tmp_path, capsys):
    cfg = write(tmp_path, "q.cfg", (
        "dimension = 1\n"
        "degree_max = 2\n"
        "region = box 0.0 1.0\n"
        f"out_dir = {tmp_path / 'out'}\n"
    ))
    assert main(["spectral", "--config", cfg, "--set", "nodes=4096"]) == 2
    assert "config error: quadrature rule: nodes must be between 1 and 2048" in (
        capsys.readouterr().err)


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
    # a thin box far out in the Gaussian tail leaves the Gramian below its floor
    cfg = write(tmp_path, "ctl.cfg", (
        "dimension = 1\n"
        "degree_max = 3\n"
        "region = box 30.0 0.1\n"
        f"out_dir = {tmp_path / 'out'}\n"
    ))
    assert main(["control", "--config", cfg]) == 1
    assert "verification failure: Gramian smallest eigenvalue" in capsys.readouterr().err


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
    assert "FAIL" not in manifest
