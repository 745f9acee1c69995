import os

import pytest

from hermspec import cli
from hermspec.cli import main, parse_config
from hermspec.errors import ConfigError
from hermspec.spectral import CellContext


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
    ("counterexample", "M = 2\nN_min = 1\nN_max = 1\n", [], "N_max", ""),
    ("counterexample", "M = 2\nN_min = 20\nN_max = 10\n", [], "N_max", ""),
], ids=["set-nodes-abc", "R-inf", "delta-nan", "m_max-0", "samples-0", "covering-typo",
        "T-nan", "quad_tol-nan", "N-range-1..1", "N-range-20..10"])
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
    for bad in ("samples=0", "T=inf", "nodes=1.5"):
        with pytest.raises(ConfigError, match=bad.split("=")[0]):
            parse_config(bad.replace("=", " = ") + "\n")
        with pytest.raises(ConfigError, match=bad.split("=")[0]):
            parse_config("", [bad])


def test_set_nodes_reaches_classify_cells(tmp_path, monkeypatch):
    seen = []

    class RecordingContext(CellContext):
        def __init__(self, covering, d, eval_degree, rule):
            seen.append(rule.nodes)
            super().__init__(covering, d, eval_degree, rule)

    monkeypatch.setattr(cli, "CellContext", RecordingContext)
    cfg = write(tmp_path, "cl.cfg", (
        "dimension = 1\n"
        "degree_max = 4\n"
        "m_max = 2\n"
        "samples = 2\n"
        f"out_dir = {tmp_path / 'out'}\n"
    ))
    assert main(["classify", "--config", cfg]) == 0
    assert main(["classify", "--config", cfg, "--set", "nodes=8"]) == 0
    assert seen == [48, 8]


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
