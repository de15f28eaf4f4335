import dataclasses
import os
import stat
from pathlib import Path

import numpy as np
import pytest

import nskwave as nw
from nskwave import cli, composite, solver
from nskwave.config import parse_config

STANDARD = Path(__file__).resolve().parents[1] / "configs" / "standard.cfg"
SMOKE_FILE = STANDARD.with_name("smoke.cfg")

SMOKE = """
[gas]
gamma = 1.4

[states]
v_plus = 1.0
u_plus = 0.0
v_m = 0.9
v_minus = 0.88

[grid]
x_lo = -240.0
x_hi = 170.0
n = 512

[scheme]
cfl = 0.4
t_end = 1.0
output_stride = 40

[perturbation]
kind = gaussian
amplitude = 0.001
center = 0.0
width = 6.0
field = both

[output]
dir = out
formats = csv
"""


@pytest.fixture()
def smoke_cfg(tmp_path):
    path = tmp_path / "smoke.cfg"
    path.write_text(SMOKE)
    return path


def test_parse_defaults_and_values(smoke_cfg):
    cfg = parse_config(smoke_cfg)
    assert cfg.gas.gamma == 1.4 and cfg.gas.alpha == 0.0
    assert cfg.states.v_m == 0.9
    assert cfg.scheme.shift is True  # default filled
    assert cfg.perturbation.kind == "gaussian"
    assert cfg.formats == ["csv"]


def test_parse_required_keys_only_gives_the_section_defaults(tmp_path):
    path = tmp_path / "minimal.cfg"
    path.write_text("[gas]\ngamma = 1.4\n[states]\nv_plus = 1.0\nu_plus = 0.0\nv_m = 0.9\n"
                    "[grid]\nx_lo = -240.0\nx_hi = 170.0\nn = 512\n[scheme]\nt_end = 1.0\n")
    cfg = parse_config(path)
    assert cfg.gas == nw.GasModel(gamma=1.4)
    assert cfg.states == nw.States(v_plus=1.0, u_plus=0.0, v_m=0.9)
    assert cfg.grid == nw.Grid(x_lo=-240.0, x_hi=170.0, n=512)
    assert cfg.scheme == nw.SchemeConfig(t_end=1.0)
    assert cfg.perturbation == nw.Perturbation()
    assert cfg.output == nw.Output()


def test_replaced_section_reruns_its_rules(smoke_cfg):
    cfg = parse_config(smoke_cfg)
    with pytest.raises(nw.ConfigError, match=r"cfl must lie in \(0, 0.5\]"):
        dataclasses.replace(cfg.scheme, cfl=0.7)
    with pytest.raises(nw.ConfigError, match="not both"):
        dataclasses.replace(cfg.states, u_minus=0.1)


def test_parse_states_and_output_rules(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text(SMOKE.replace("v_plus = 1.0", "v_plus = -1.0")
                    .replace("formats = csv", "formats = csv,xml"))
    with pytest.raises(nw.ConfigError) as err:
        parse_config(path)
    msg = str(err.value)
    assert "states: v_plus must be positive" in msg
    assert "output: unknown format 'xml'" in msg


def test_parse_rejects_bad_gamma(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text(SMOKE.replace("gamma = 1.4", "gamma = 0.9"))
    with pytest.raises(nw.ConfigError, match="gamma must exceed 1"):
        parse_config(path)


def test_parse_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text(SMOKE.replace("gamma = 1.4", "gama = 1.4"))
    with pytest.raises(nw.ConfigError, match="unknown key 'gama'"):
        parse_config(path)


def test_parse_rejects_unknown_section(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text(SMOKE + "\n[plotting]\nstyle = fancy\n")
    with pytest.raises(nw.ConfigError, match=r"unknown section \[plotting\]"):
        parse_config(path)


def test_parse_reports_line_numbers_and_all_errors(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[gas]\ngamma = 0.5\nbogus = 1\n[grid]\nx_lo = 2.0\nx_hi = 1.0\nn = 4\n"
                    "[states]\nv_plus = 1.0\nu_plus = 0.0\nv_m = 0.9\n[scheme]\nt_end = 1.0\n")
    with pytest.raises(nw.ConfigError) as err:
        parse_config(path)
    msg = str(err.value)
    assert "line 3" in msg and "bogus" in msg
    assert "gamma must exceed 1" in msg
    assert "x_lo < x_hi" in msg
    assert "at least 16" in msg


def test_parse_rejects_a_key_set_twice(tmp_path):
    # a second [scheme] block would otherwise override t_end and cfl
    path = tmp_path / "bad.cfg"
    text = SMOKE + "\n[scheme]\nt_end = 5.0\ncfl = 0.2\n"
    path.write_text(text)
    first, second = [i for i, line in enumerate(text.splitlines(), 1) if line.startswith("t_end")]
    with pytest.raises(nw.ConfigError) as err:
        parse_config(path)
    msg = str(err.value)
    assert f"line {second}: key 't_end' already set on line {first}" in msg
    assert "key 'cfl' already set on line" in msg
    # within one block too
    path.write_text(SMOKE.replace("n = 512", "n = 512\nn = 256"))
    with pytest.raises(nw.ConfigError, match="key 'n' already set on line"):
        parse_config(path)


@pytest.mark.parametrize("old, new, key", [("center = 0.0", "center = inf", "center"),
                                           ("width = 6.0", "width = inf", "width"),
                                           ("center = 0.0", "center = nan", "center"),
                                           ("x_lo = -240.0", "x_lo = -inf", "x_lo")],
                         ids=["center-inf", "width-inf", "center-nan", "x_lo-minus-inf"])
def test_parse_rejects_a_float_that_is_not_finite(tmp_path, old, new, key):
    path = tmp_path / "bad.cfg"
    path.write_text(SMOKE.replace(old, new))
    line = SMOKE.splitlines().index(old) + 1
    with pytest.raises(nw.ConfigError, match=f"line {line}: key '{key}' must be finite") as err:
        parse_config(path)
    # the key is present, so a required one (x_lo) is not also reported missing
    assert "missing required key" not in str(err.value)


def test_parse_reports_an_absent_required_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text(SMOKE.replace("x_lo = -240.0\n", ""))
    with pytest.raises(nw.ConfigError, match="missing required key grid.x_lo"):
        parse_config(path)


def test_main_exits_1_on_a_float_that_is_not_finite(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(SMOKE.replace("width = 6.0", "width = inf"))
    assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert "key 'width' must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_parse_state_mode_exclusivity(tmp_path):
    text = SMOKE.replace("v_m = 0.9", "v_m = 0.9\nu_minus = 0.1")
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    with pytest.raises(nw.ConfigError, match="not both"):
        parse_config(path)


def test_dispatch_riemann(smoke_cfg, capsys):
    cfg = parse_config(smoke_cfg)
    assert cli.dispatch("riemann", cfg) == 0
    out = capsys.readouterr().out
    assert "sigma = " in out and "C1 = " in out


def test_dispatch_unknown_subcommand(smoke_cfg):
    cfg = parse_config(smoke_cfg)
    assert cli.dispatch("frobnicate", cfg) == 1


def test_simulate_smoke_and_determinism(smoke_cfg, tmp_path):
    cfg = parse_config(smoke_cfg)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.dispatch("simulate", cfg, out_dir=out1) == 0
    assert cli.dispatch("simulate", cfg, out_dir=out2) == 0
    ts1 = (out1 / "timeseries.csv").read_bytes()
    ts2 = (out2 / "timeseries.csv").read_bytes()
    assert ts1 == ts2
    lines = ts1.decode().strip().splitlines()
    assert lines[0].startswith("t,X,Xdot,L2_phi")
    assert len(lines) >= 3  # header plus two records
    snaps = sorted(p.name for p in out1.glob("snapshot_*.csv"))
    assert len(snaps) >= 1
    header = (out1 / snaps[0]).read_text().splitlines()[0]
    assert header == "x,v,u,w,vbar,ubar,wbar,a"


def test_profile_csv_deterministic(smoke_cfg, tmp_path):
    cfg = parse_config(smoke_cfg)
    out1, out2 = tmp_path / "p1", tmp_path / "p2"
    assert cli.dispatch("profile", cfg, out_dir=out1) == 0
    assert cli.dispatch("profile", cfg, out_dir=out2) == 0
    assert (out1 / "profile.csv").read_bytes() == (out2 / "profile.csv").read_bytes()


def test_rarefaction_csv(smoke_cfg, tmp_path):
    cfg = parse_config(smoke_cfg)
    out = tmp_path / "r"
    assert cli.dispatch("rarefaction", cfg, out_dir=out) == 0
    lines = (out / "rarefaction.csv").read_text().splitlines()
    assert lines[0] == "x,v,u,vx,ux,vxx,uxx,vxxx,uxxx,vxxxx,uxxxx"
    assert len(lines) == 1 + 512


def test_interactions_csv(smoke_cfg, tmp_path):
    cfg = parse_config(smoke_cfg)
    out = tmp_path / "i"
    assert cli.dispatch("interactions", cfg, out_dir=out) == 0
    lines = (out / "interactions.csv").read_text().splitlines()
    assert lines[0].startswith("t,vSx_vR_L1")
    assert len(lines) == 10


def test_interactions_refine_all_times_in_lockstep(tmp_path, monkeypatch):
    """On standard.cfg cut to t_end = 80 the nine times refine in lockstep:
    one integrand call per level, where nine quadratures made 109.  The CSV
    is the one those nine quadratures give, to the bit."""
    cfg = parse_config(STANDARD)
    cfg = dataclasses.replace(cfg, scheme=dataclasses.replace(cfg.scheme, t_end=80.0))
    calls = []
    adaptive_simpson = composite.adaptive_simpson

    def counting(f, breakpoints, *args, **kwargs):
        # the integrand wrapped as the benchmark's tracer wraps it
        def integrand(x, *rest):
            calls.append(x.size)
            return f(x, *rest)
        return adaptive_simpson(integrand, breakpoints, *args, **kwargs)

    monkeypatch.setattr(composite, "adaptive_simpson", counting)
    assert cli.dispatch("interactions", cfg, out_dir=tmp_path / "lockstep") == 0
    monkeypatch.undo()
    assert len(calls) <= 14

    wave = nw.build_composite(cfg.build_pattern(), cfg.gas)
    rows = []
    for t in np.linspace(0.0, 80.0, 9).tolist():
        (rec,) = wave.interaction_norms([t])
        rows.append([t, *rec.values()])
    cli.write_csv(tmp_path / "per_time.csv", ["t", *rec], rows)
    lockstep = (tmp_path / "lockstep" / "interactions.csv").read_text()
    assert lockstep == (tmp_path / "per_time.csv").read_text()


def test_exit_code_on_pattern_failure(tmp_path):
    text = SMOKE.replace("v_m = 0.9\nv_minus = 0.88", "v_minus = 1.0\nu_minus = -1.0")
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    cfg = parse_config(path)
    assert cli.dispatch("riemann", cfg) == 1


def test_exit_code_on_numerical_failure(tmp_path):
    # strength above the oscillatory threshold but below the cap: the profile
    # solve detects the spiral and reports a numerical failure
    text = SMOKE.replace("v_m = 0.9\nv_minus = 0.88", "v_m = 0.785\nv_minus = 0.785")
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    cfg = parse_config(path)
    assert cli.dispatch("profile", cfg, out_dir=tmp_path / "x") == 2


def test_verify_passes(smoke_cfg, capsys):
    cfg = parse_config(smoke_cfg)
    assert cli.dispatch("verify", cfg, seed=0) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == len(cli.VERIFY_SUITES)
    assert "FAIL" not in out


def counted_profile_solves(monkeypatch):
    """The calls of ``solve_profile``, through either module that looks it up."""
    calls = []
    real = nw.solve_profile

    def counting(pattern, model):
        calls.append(pattern)
        return real(pattern, model)

    monkeypatch.setattr(solver, "solve_profile", counting)
    monkeypatch.setattr(cli, "solve_profile", counting)
    return calls


def test_verify_solves_the_profile_once(monkeypatch, capsys):
    solves = counted_profile_solves(monkeypatch)
    assert cli.dispatch("verify", parse_config(SMOKE_FILE), seed=0) == 0
    assert len(solves) == 1
    assert capsys.readouterr().out.count("PASS") == len(cli.VERIFY_SUITES)


def test_verify_reports_a_suite_that_raises_and_runs_the_rest(tmp_path, capsys, monkeypatch):
    # inside the strength cap, but the shock's right end state is a spiral:
    # every suite that needs the profile reports the MonotonicityError of
    # its one solve
    path = tmp_path / "spiral.cfg"
    path.write_text(SMOKE.replace("v_m = 0.9\nv_minus = 0.88", "v_m = 0.76\nv_minus = 0.74"))
    solves = counted_profile_solves(monkeypatch)
    assert cli.dispatch("verify", parse_config(path), seed=0) == 2
    assert len(solves) == 1
    lines = capsys.readouterr().out.splitlines()
    failing = {"shock-profile", "forcing-cancellation", "weight-bounds"}
    assert len(lines) == len(cli.VERIFY_SUITES)
    for line, (name, _) in zip(lines, cli.VERIFY_SUITES):
        if name in failing:
            assert line.startswith(f"FAIL {name}: monotonicity violated: right end state is a spiral")
        else:
            assert line == f"PASS {name}"


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_atomic_write_gives_the_mode_of_open(tmp_path, umask):
    old = os.umask(umask)
    try:
        cli._write_atomic(tmp_path / "atomic.csv", "x\n")
        (tmp_path / "plain.csv").write_text("x\n")
    finally:
        os.umask(old)
    modes = [stat.S_IMODE((tmp_path / name).stat().st_mode) for name in ("atomic.csv", "plain.csv")]
    assert modes == [0o666 & ~umask] * 2
    assert (tmp_path / "atomic.csv").read_text() == "x\n"


def test_main_entry(smoke_cfg, tmp_path, capsys):
    rc = cli.main(["riemann", "--config", str(smoke_cfg)])
    assert rc == 0
    rc = cli.main(["riemann", "--config", str(tmp_path / "missing.cfg")])
    assert rc == 1


def test_partial_output_flushed_on_abort(smoke_cfg, tmp_path, monkeypatch):
    import nskwave.solver as solver_mod

    cfg = parse_config(smoke_cfg)
    real_step = solver_mod._step_core
    counter = {"n": 0}

    def exploding_step(*args, **kwargs):
        counter["n"] += 1
        if counter["n"] > 3:
            raise nw.SolverError("injected failure")
        return real_step(*args, **kwargs)

    monkeypatch.setattr(solver_mod, "_step_core", exploding_step)
    out = tmp_path / "aborted"
    rc = cli.dispatch("simulate", cfg, out_dir=out)
    assert rc == 2
    partial = out / "timeseries.partial.csv"
    assert partial.exists()
    assert len(partial.read_text().splitlines()) >= 2  # header plus records


def test_simulate_reports_rk4_step_count(smoke_cfg, tmp_path, monkeypatch, capsys):
    import nskwave.solver as solver_mod

    cfg = parse_config(smoke_cfg)
    real_step = solver_mod._step_core
    counter = {"n": 0}

    def counting_step(*args, **kwargs):
        counter["n"] += 1
        return real_step(*args, **kwargs)

    monkeypatch.setattr(solver_mod, "_step_core", counting_step)
    assert cli.dispatch("simulate", cfg, out_dir=tmp_path / "steps") == 0
    summary = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
    records = (tmp_path / "steps" / "timeseries.csv").read_text().splitlines()[1:]
    assert int(summary["steps"]) == counter["n"] > len(records)


def test_float_roundtrip_formatting():
    vals = [0.1, 1e-17, 123456.789, -3.5e300]
    for v in vals:
        assert float(cli._fmt(v)) == v
