"""Config parsing, subcommand emission, and exit-code checks."""

import json
import math

import numpy as np
import pytest

from cavityfilter import cli
from cavityfilter.cli import main, parse_config, run_subcommand
from cavityfilter.errors import ConfigError

MINIMAL = """\
[mode]
gamma = 1
dim = 20

[initial]
state = vacuum

[run]
T = 1
dt = 1e-3
"""


def _config(tmp_path, text, name="scenario.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def _rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return header, data


def test_parse_minimal_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.params.gamma == 1.0
    assert cfg.params.omega == 0.0
    assert cfg.dim == 20
    assert cfg.state == "vacuum"
    assert cfg.alpha == 0.0
    assert cfg.cov.V == 0.0 and cfg.cov.W == 0.0
    assert cfg.theta == 0.0
    assert cfg.gains.k_P == cfg.gains.k_I == cfg.gains.k_D == 0.0
    assert cfg.gains.mu == 1.0 and cfg.gains.nu == 1.0
    assert cfg.n_traj == 1
    assert cfg.seed == 0
    assert cfg.stride == 1
    assert cfg.out_dir == "."


def test_parse_full_sections():
    cfg = parse_config("""\
[mode]
gamma = 2
omega = 0.5
dim = 30

[initial]
state = gaussian
alpha = 0.3+0.1j
V = 0.5
W = 0.2-0.1j

[measurement]
theta = 0.7

[control]
k_P = 2
k_I = 1
k_D = 0.5
mu = 0.9
nu = 1.1

[reference]
kind = sinusoid
amplitude = 1+1j
frequency = 2
onset = 0.5

[run]
T = 5
dt = 1e-4
n_traj = 8
seed = 123
stride = 10
out_dir = results
""")
    assert cfg.params.omega == 0.5
    assert cfg.alpha == 0.3 + 0.1j
    assert cfg.cov.W == 0.2 - 0.1j
    assert cfg.theta == 0.7
    assert cfg.gains.k_D == 0.5 and cfg.gains.mu == 0.9
    assert cfg.reference.kind == "sinusoid"
    assert cfg.reference.onset == 0.5
    assert cfg.n_traj == 8 and cfg.stride == 10
    assert cfg.out_dir == "results"


def test_parse_errors_name_the_key():
    with pytest.raises(ConfigError, match="mode.gamma"):
        parse_config(MINIMAL.replace("gamma = 1", "gamma = -1"))
    with pytest.raises(ConfigError, match="control.k_D"):
        parse_config(MINIMAL + "\n[control]\nk_D = -0.5\n")
    with pytest.raises(ConfigError, match="mode.gamma"):
        parse_config(MINIMAL.replace("gamma = 1", "gamma = fast"))
    with pytest.raises(ConfigError, match="run.T"):
        parse_config(MINIMAL.replace("T = 1", "T = 0"))
    with pytest.raises(ConfigError, match="initial.state"):
        parse_config(MINIMAL.replace("state = vacuum", "state = squeezed"))


_GAUSSIAN = "state = gaussian\nV = 0.2"


@pytest.mark.parametrize("old,new,message", [
    ("dim = 20", "dim = 2.5", "mode.dim: not an integer ('2.5')"),
    ("gamma = 1", "gamma = fast", "mode.gamma: not a number ('fast')"),
    ("dim = 20", "dim = 20\nomega = inf", "mode.omega: must be finite"),
    ("state = vacuum", _GAUSSIAN + "\nW = big",
     "initial.W: not a complex number ('big')"),
    ("state = vacuum", _GAUSSIAN + "\nalpha = nan+1j",
     "initial.alpha: must be finite"),
    ("dt = 1e-3", "dt = 1e-3\nseed = x", "run.seed: not an integer ('x')"),
    ("dt = 1e-3", "dt = 1e-3\n[reference]\nonset = -1",
     "reference.onset: onset must be a nonnegative real, got -1.0"),
    ("dt = 1e-3", "dt = 1e-3\n[reference]\nkind = square",
     "reference.kind: kind must be one of ('constant', 'step', 'ramp', "
     "'sinusoid'), got 'square'"),
])
def test_reader_failures_give_their_full_message(old, new, message):
    with pytest.raises(ConfigError) as info:
        parse_config(MINIMAL.replace(old, new))
    assert str(info.value) == message


def test_parse_rejects_unknown_and_unused_keys():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config(MINIMAL + "\n[plotting]\nstyle = fancy\n")
    with pytest.raises(ConfigError, match="mode.decay: unknown key"):
        parse_config(MINIMAL.replace("dim = 20", "dim = 20\ndecay = 2"))
    with pytest.raises(ConfigError, match="initial.alpha"):
        parse_config(MINIMAL.replace("state = vacuum",
                                     "state = vacuum\nalpha = 1"))
    with pytest.raises(ConfigError, match="initial.nbar"):
        parse_config(MINIMAL.replace("state = vacuum", "state = thermal"))


def test_parse_rejects_malformed_document():
    with pytest.raises(ConfigError, match="parse error"):
        parse_config("gamma = 1\n")
    with pytest.raises(ConfigError, match="DEFAULT"):
        parse_config("[DEFAULT]\ngamma = 1\n" + MINIMAL)
    with pytest.raises(ConfigError, match="initial.alpha"):
        parse_config(MINIMAL.replace("state = vacuum",
                                     "state = coherent\nalpha = big"))


def test_riccati_vacuum_emits_zero_columns(tmp_path):
    cfg = parse_config(MINIMAL)
    code, written = run_subcommand("riccati", cfg, out_dir=tmp_path)
    assert code == 0
    header, data = _rows(written[0])
    assert header == ["t", "V", "re_W", "im_W"]
    assert len(data) == 1001
    assert np.all(data[:, 1:] == 0.0)


def test_filter_emits_trajectory_series(tmp_path):
    text = MINIMAL.replace("state = vacuum", "state = coherent\nalpha = 0.4")
    text = text.replace("T = 1", "T = 0.1").replace("dt = 1e-3",
                                                    "dt = 1e-3\nstride = 10")
    cfg = parse_config(text)
    code, written = run_subcommand("filter", cfg, out_dir=tmp_path)
    assert code == 0
    header, data = _rows(written[0])
    assert header == ["t", "re_a_truth", "im_a_truth", "n_truth", "re_a_hat",
                      "im_a_hat", "V", "re_W", "im_W", "Y", "I"]
    assert data.shape == (11, 11)
    assert data[0, 1] == 0.4
    # coherent prior: zero covariance columns, filter pinned to the mean flow
    assert np.all(data[:, 6:9] == 0.0)


def test_rerun_is_byte_identical(tmp_path):
    text = MINIMAL.replace("state = vacuum", "state = coherent\nalpha = 0.4")
    text = text.replace("T = 1", "T = 0.1")
    cfg = parse_config(text)
    run_subcommand("filter", cfg, out_dir=tmp_path / "a")
    run_subcommand("filter", cfg, out_dir=tmp_path / "b")
    assert ((tmp_path / "a" / "trajectory.csv").read_bytes()
            == (tmp_path / "b" / "trajectory.csv").read_bytes())


def test_csv_cells_are_the_17g_format_of_each_value(tmp_path):
    # each cell is format(x, ".17g") of its value: signed zeros,
    # infinities, nan, subnormals, the extremes and random magnitudes,
    # as Python floats and as numpy float64
    edge = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
            2.2250738585072014e-308, 2.225073858507201e-308,
            1.7976931348623157e308, 1e16, 123456789012345678.0, 0.1, 1 / 3]
    rng = np.random.default_rng(18)
    values = rng.standard_normal(210) * 10.0 ** rng.integers(-300, 300, 210)
    rows = [tuple(edge[:7]), tuple(edge[7:])] + [
        tuple(r) for r in values.reshape(-1, 7)]
    path = tmp_path / "cells.csv"
    cli._write_csv(path, "a,b,c,d,e,f,g", iter(rows))
    want = "".join(",".join(format(float(x), ".17g") for x in row) + "\n"
                   for row in rows)
    assert path.read_bytes() == ("a,b,c,d,e,f,g\n" + want).encode()


def test_tf_and_classical_reruns_are_byte_identical(tmp_path):
    cfg = parse_config(MINIMAL.replace("state = vacuum",
                                       "state = thermal\nnbar = 0.5")
                       .replace("T = 1", "T = 0.1")
                       .replace("dt = 1e-3", "dt = 2e-4\nstride = 10")
                       + "\n[control]\nk_P = 2\nk_I = 1\nk_D = 0.5\n"
                       + "\n[reference]\nkind = sinusoid\nfrequency = 3\n")
    files = {}
    for name in ("a", "b"):
        for sub in ("tf", "classical"):
            assert run_subcommand(sub, cfg, out_dir=tmp_path / name)[0] == 0
        files[name] = {p.name: p.read_bytes()
                       for p in sorted((tmp_path / name).iterdir())}
    assert set(files["a"]) == {"tf_freq.csv", "tf_step.csv", "classical.csv"}
    assert files["b"] == files["a"]


@pytest.mark.bitwise
def test_filter_is_closed_loop_without_feedback(tmp_path):
    # no [control] or [reference]: zero gains and a zero constant reference
    text = MINIMAL.replace("state = vacuum", "state = thermal\nnbar = 0.3")
    cfg = parse_config(text.replace("T = 1", "T = 0.05"))
    run_subcommand("filter", cfg, out_dir=tmp_path)
    run_subcommand("closed-loop", cfg, out_dir=tmp_path)
    assert ((tmp_path / "trajectory.csv").read_bytes()
            == (tmp_path / "closed_loop.csv").read_bytes())


def test_closed_loop_emits_series_and_summary(tmp_path):
    cfg = parse_config("""\
[mode]
gamma = 1
dim = 20

[initial]
state = coherent
alpha = 0.5

[control]
k_P = 2
k_I = 1

[reference]
kind = step
amplitude = 1

[run]
T = 0.2
dt = 1e-3
seed = 11
stride = 20
""")
    code, written = run_subcommand("closed-loop", cfg, out_dir=tmp_path)
    assert code == 0
    assert [p.name for p in written] == ["closed_loop.csv", "closed_loop.json"]
    summary = json.loads(written[1].read_text())
    assert set(summary) == {"T", "dt", "seed", "terminal_error",
                            "terminal_innovation", "sq_error_mean",
                            "sq_error_max", "qv"}
    assert summary["T"] == 0.2 and summary["seed"] == 11
    assert summary["sq_error_max"] < 1e-6  # filter tracks its own truth
    assert 0.0 < summary["terminal_error"] < 1.0
    assert summary["qv"] > 0.0


def test_ensemble_emits_aggregates_and_verdicts(tmp_path, monkeypatch):
    text = """\
[mode]
gamma = 1
dim = 22

[initial]
state = thermal
nbar = 0.5

[run]
T = 0.2
dt = 5e-4
n_traj = 10
seed = 8589934592
stride = 20
"""
    cfg = parse_config(text)
    code, written = run_subcommand("ensemble", cfg, out_dir=tmp_path / "a")
    assert code == 0
    header, data = _rows(written[0])
    assert header == ["t", "re_mean_a", "im_mean_a", "var_a", "re_mean_a_hat",
                      "im_mean_a_hat", "mse", "V"]
    assert data[0, 7] == 0.5
    summary = json.loads(written[1].read_text())
    assert set(summary) == {
        "T", "dt", "base_seed", "n_traj", "scenario", "terminal_mean",
        "mean_threshold", "mean_ok", "qv_ratio_min", "qv_ratio_max", "qv_low",
        "qv_high", "qv_ok", "innovations_pass", "mse_max_rel_dev",
        "mse_window_start", "mse_threshold", "mse_pass", "overall_pass"}
    assert summary["n_traj"] == 10
    assert summary["mean_threshold"] == 3.0 * math.sqrt(0.2 / 10)

    # worker count must not change a single byte of the outputs
    monkeypatch.setenv("QKF_THREADS", "3")
    run_subcommand("ensemble", cfg, out_dir=tmp_path / "b")
    for name in ("ensemble.csv", "ensemble.json"):
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes())


_SH, _CH = math.sinh(0.3), math.cosh(0.3)


@pytest.mark.parametrize("v,w", [(0.2, -0.3), (_SH * _SH, -_SH * _CH)],
                         ids=["mixed-squeezed", "pure-squeezed"])
def test_ensemble_runs_a_squeezed_prior_as_given(tmp_path, v, w):
    # V < |W| has no coherent-state mixture: every truth starts on the
    # prior itself (a density factor, resp. a vector), so the t = 0
    # error is the prior variance exactly, not that of clipped draws
    cfg = parse_config(f"""\
[mode]
gamma = 1
dim = 22

[initial]
state = gaussian
V = {v!r}
W = {w!r}

[run]
T = 0.02
dt = 1e-3
n_traj = 3
seed = 8589934592
""")
    code, written = run_subcommand("ensemble", cfg, out_dir=tmp_path)
    assert code == 0
    header, data = _rows(written[0])
    assert data[0, header.index("V")] == v
    assert abs(data[0, header.index("mse")] - v) < 1e-9
    assert abs(data[0, header.index("var_a")]) < 1e-12


def test_ensemble_assert_mode_flags_failure(tmp_path):
    # 4 trajectories cannot satisfy the quadratic-variation band at this
    # coarse dt; --assert turns that into exit code 4
    cfg = parse_config("""\
[mode]
gamma = 1
dim = 22

[initial]
state = thermal
nbar = 0.5

[run]
T = 0.1
dt = 1e-3
n_traj = 4
seed = 5
""")
    code, written = run_subcommand("ensemble", cfg, out_dir=tmp_path,
                                   assert_stats=True)
    assert code == 4
    assert json.loads(written[1].read_text())["overall_pass"] is False


def test_tf_tables_and_proportional_dc_gain(tmp_path):
    cfg = parse_config("""\
[mode]
gamma = 1
dim = 20

[initial]
state = vacuum

[control]
k_P = 50

[reference]
kind = step
amplitude = 1

[run]
T = 1
dt = 1e-3
stride = 10
""")
    code, written = run_subcommand("tf", cfg, out_dir=tmp_path)
    assert code == 0
    header, freq = _rows(written[0])
    assert header == ["Omega", "re_G", "im_G", "re_K", "im_K", "re_H", "im_H"]
    assert not np.any(freq[:, 0] == 0.0)
    k_col = freq[:, 3] + 1j * freq[:, 4]
    assert np.allclose(k_col, 50.0)
    header, step = _rows(written[1])
    assert header == ["t", "re_r", "im_r", "re_y", "im_y"]
    y_end = step[-1, 3] + 1j * step[-1, 4]
    assert abs(y_end - 100.0 / 101.0) <= 1e-6


def test_tune_emits_gains_and_poles(tmp_path):
    cfg = parse_config("""\
[mode]
gamma = 2
dim = 20

[initial]
state = vacuum

[control]
zeta = 1
omega0 = 1

[run]
T = 1
dt = 1e-3
""")
    code, written = run_subcommand("tune", cfg, out_dir=tmp_path)
    assert code == 0
    out = json.loads(written[0].read_text())
    assert out["k_P"] == 1.0 and out["k_I"] == 1.0 and out["k_D"] == 0.0
    assert abs(out["pole1_re"] + 1.0) <= 1e-9
    assert abs(out["pole2_re"] + 1.0) <= 1e-9
    assert out["max_pole_error"] <= 1e-9


def test_tune_requires_design_targets():
    cfg = parse_config(MINIMAL)
    with pytest.raises(ConfigError, match="control.zeta"):
        run_subcommand("tune", cfg, out_dir=".")


def test_classical_chain_agreement(tmp_path):
    cfg = parse_config("""\
[mode]
gamma = 1
dim = 20

[initial]
state = gaussian
V = 0.5

[run]
T = 0.4
dt = 2e-4
seed = 3
stride = 200
""")
    code, written = run_subcommand("classical", cfg, out_dir=tmp_path)
    assert code == 0
    header, data = _rows(written[0])
    assert header == ["t", "x_truth", "kalman_mean", "kalman_var", "kb_mean",
                      "kb_var", "zakai_mean", "zakai_var"]
    # discrete Kalman vs Kalman-Bucy vs grid filter on the shared record
    assert np.max(np.abs(data[:, 2] - data[:, 4])) < 1e-3
    assert np.max(np.abs(data[:, 6] - data[:, 4])) < 5e-3
    assert np.max(np.abs(data[:, 7] - data[:, 5])) < 5e-3


def test_classical_needs_positive_prior_variance():
    cfg = parse_config(MINIMAL)
    with pytest.raises(ConfigError, match="initial.state"):
        run_subcommand("classical", cfg, out_dir=".")


def test_cosim_subcommands_reject_tilted_quadrature():
    cfg = parse_config(MINIMAL + "\n[measurement]\ntheta = 0.3\n")
    for name in ("filter", "closed-loop", "ensemble"):
        with pytest.raises(ConfigError, match="measurement.theta"):
            run_subcommand(name, cfg, out_dir=".")


def test_main_exit_codes(tmp_path, capsys):
    ok = _config(tmp_path, MINIMAL.replace("T = 1", "T = 0.05"))
    assert main(["riccati", str(ok), "--out", str(tmp_path / "out")]) == 0
    out = capsys.readouterr()
    assert "riccati.csv" in out.out

    assert main(["riccati", str(tmp_path / "missing.ini")]) == 2
    assert "cannot read config" in capsys.readouterr().err

    bad = _config(tmp_path, MINIMAL.replace("gamma = 1", "gamma = -2"), "b.ini")
    assert main(["riccati", str(bad)]) == 2
    assert "mode.gamma" in capsys.readouterr().err

    # numeric failure: coherent amplitude far beyond the Fock budget
    blow = _config(tmp_path, MINIMAL.replace("state = vacuum",
                                             "state = coherent\nalpha = 4")
                   .replace("T = 1", "T = 0.05"), "c.ini")
    assert main(["filter", str(blow), "--out", str(tmp_path / "o3")]) == 3
    assert "error:" in capsys.readouterr().err


def test_main_assert_flag(tmp_path, capsys):
    text = """\
[mode]
gamma = 1
dim = 22

[initial]
state = thermal
nbar = 0.5

[run]
T = 0.1
dt = 1e-3
n_traj = 4
seed = 5
"""
    path = _config(tmp_path, text)
    assert main(["ensemble", str(path), "--out", str(tmp_path / "o"),
                 "--assert"]) == 4
    err = capsys.readouterr().err
    assert "statistical verdict failed" in err


def test_classical_grid_errors_name_run_keys():
    base = MINIMAL.replace("state = vacuum", "state = thermal\nnbar = 0.5")
    cfg = parse_config(base.replace("dt = 1e-3", "dt = 3e-4"))
    with pytest.raises(ConfigError,
                       match=r"^run\.dt: 0\.0003 does not divide T=1\.0$"):
        run_subcommand("classical", cfg, out_dir=".")
    cfg = parse_config(base + "stride = 7\n")
    with pytest.raises(ConfigError,
                       match=r"^run\.stride: 7 does not divide 1000 steps$"):
        run_subcommand("classical", cfg, out_dir=".")


_GRID_BASE = (MINIMAL.replace("state = vacuum", "state = thermal\nnbar = 0.5")
              + "\n[control]\nzeta = 1\nomega0 = 1\n")


@pytest.mark.parametrize("fault,key", [
    (("dt = 1e-3", "dt = 3e-4"), "run.dt: "),
    (("dt = 1e-3", "dt = 1e-3\nstride = 7"), "run.stride: "),
], ids=["dt", "stride"])
@pytest.mark.parametrize("name", ["riccati", "filter", "closed-loop",
                                  "ensemble", "tf", "classical"])
def test_run_grid_fault_is_a_config_error(tmp_path, capsys, name, fault, key):
    # every subcommand that integrates rejects the grid before any work
    path = _config(tmp_path, _GRID_BASE.replace(*fault))
    out = tmp_path / "out"
    assert main([name, str(path), "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()
    assert main(["tune", str(path), "--out", str(out)]) == 0


@pytest.mark.parametrize("dt,code", [("1e-3", 2), ("2.5e-4", 0)])
def test_classical_grid_stability_is_a_config_error(tmp_path, capsys, dt, code):
    # the grid filter's diffusion bound dt <= 0.5 dx^2 = 3.125e-4 is fixed
    # by the 801-point grid, so a coarser run.dt is a config fault found
    # before any work; a run within the bound writes what the chain alone
    # writes
    text = (_GRID_BASE.replace("dt = 1e-3", f"dt = {dt}")
            .replace("T = 1", "T = 0.05"))
    out = tmp_path / "out"
    assert main(["classical", str(_config(tmp_path, text)), "--out",
                 str(out)]) == code
    err = capsys.readouterr().err
    if code == 2:
        assert "run.dt: " in err and "stability bound" in err
        assert not out.exists()
        return
    direct = tmp_path / "direct"
    direct.mkdir()
    cli._cmd_classical(parse_config(text), direct)
    assert ((out / "classical.csv").read_bytes()
            == (direct / "classical.csv").read_bytes())
