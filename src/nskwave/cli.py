"""Command-line front end: wave construction, simulation and verification.

All file outputs are written atomically (temp file + rename) and floats
are serialized with shortest round-trip decimals, so identical configs
produce byte-identical artifacts.
"""
from __future__ import annotations

import argparse
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import diagnostics, solver, thermo
from .config import RunConfig, parse_config
from .errors import (CflError, ConfigError, DomainError, PatternError,
                     ProfileError, SolverError, VacuumError)
from .rarefaction import RarefactionWave
from .shockprofile import eval_profile, solve_profile

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2

#: the errors ``dispatch`` reports with each exit code
VALIDATION_ERRORS = (ConfigError, PatternError, DomainError)
NUMERICAL_ERRORS = (ProfileError, VacuumError, CflError, SolverError, FloatingPointError)


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_atomic(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            # mkstemp creates the file owner-only; give it open()'s mode
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: Path, header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    _write_atomic(path, "\n".join(lines) + "\n")


def write_ndjson(path: Path, dicts):
    lines = ["{" + ", ".join(f'"{k}": {_fmt(v)}' for k, v in d.items()) + "}" for d in dicts]
    _write_atomic(path, "\n".join(lines) + "\n")


# -- subcommands -----------------------------------------------------------------


def _cmd_riemann(config: RunConfig, out_dir: Path, seed: int) -> int:
    pattern = config.build_pattern()
    pairs = [
        ("v_minus", pattern.left.v), ("u_minus", pattern.left.u),
        ("v_m", pattern.mid.v), ("u_m", pattern.mid.u),
        ("v_plus", pattern.right.v), ("u_plus", pattern.right.u),
        ("sigma", pattern.sigma), ("delta_R", pattern.delta_R),
        ("delta_S", pattern.delta_S), ("sigma_m", pattern.sigma_m),
        ("alpha_m", pattern.alpha_m), ("M", pattern.M), ("C1", pattern.C1),
    ]
    for key, val in pairs:
        print(f"{key} = {_fmt(float(val))}")
    return EXIT_OK


def _cmd_profile(config: RunConfig, out_dir: Path, seed: int) -> int:
    pattern = config.build_pattern()
    profile = solve_profile(pattern, config.gas)
    stack = eval_profile(profile, profile.xi)
    header = ["xi", "v", "u", "w", "vx", "ux", "wx", "vxx", "vxxx"]
    rows = zip(profile.xi.tolist(), *(stack[k].tolist() for k in header[1:]))
    write_csv(out_dir / "profile.csv", header, rows)
    return EXIT_OK


def _cmd_rarefaction(config: RunConfig, out_dir: Path, seed: int) -> int:
    pattern = config.build_pattern()
    wave = RarefactionWave(pattern, config.gas)
    grid = config.grid
    st = wave.eval(config.scheme.t_end, grid.x, order=4)
    header = ["x", "v", "u", "vx", "ux", "vxx", "uxx", "vxxx", "uxxx", "vxxxx", "uxxxx"]
    rows = zip(grid.x.tolist(), *(np.asarray(st[k]).tolist() for k in header[1:]))
    write_csv(out_dir / "rarefaction.csv", header, rows)
    return EXIT_OK


def _cmd_interactions(config: RunConfig, out_dir: Path, seed: int) -> int:
    pattern = config.build_pattern()
    composite = solver.build_composite(pattern, config.gas)
    times = np.linspace(0.0, config.scheme.t_end, 9)
    results = composite.interaction_norms(times)
    rows = [[t, *rec.values()] for t, rec in zip(times.tolist(), results)]
    write_csv(out_dir / "interactions.csv", ["t", *results[0]], rows)
    return EXIT_OK


def _write_run_outputs(result, config: RunConfig, out_dir: Path, partial=False):
    rows = [rec.as_row() for rec in result.records]
    suffix = ".partial" if partial else ""
    if "csv" in config.formats:
        write_csv(out_dir / f"timeseries{suffix}.csv", diagnostics.CSV_COLUMNS, rows)
    if "ndjson" in config.formats:
        write_ndjson(out_dir / f"timeseries{suffix}.ndjson",
                     [r.as_dict() for r in result.records])
    snap_header = ["x", "v", "u", "w", "vbar", "ubar", "wbar", "a"]
    for idx, snap in enumerate(result.snapshots):
        cols = [snap.x, snap.v, snap.u, snap.w, snap.vbar, snap.ubar, snap.wbar, snap.a]
        write_csv(out_dir / f"snapshot_{idx:04d}{suffix}.csv", snap_header,
                  zip(*(c.tolist() for c in cols)))


def _cmd_simulate(config: RunConfig, out_dir: Path, seed: int) -> int:
    try:
        result = solver.run(config)
    except Exception as exc:
        partial = getattr(exc, "partial", None)
        if partial is not None and partial.records:
            _write_run_outputs(partial, config, out_dir, partial=True)
        raise
    _write_run_outputs(result, config, out_dir)
    for key, val in result.summary.items():
        print(f"{key} = {_fmt(val)}")
    return EXIT_OK


# -- verification suites ------------------------------------------------------------


def _suite_relative_quantities(config, rng, composite):
    model = config.gas
    v = rng.uniform(0.1, 3.0, size=4000)
    vbar = rng.uniform(0.1, 3.0, size=4000)
    q = thermo.relative_internal_energy(v, vbar, model)
    p = thermo.relative_pressure(v, vbar, model)
    assert np.all(q >= -1e-14) and np.all(p >= -1e-14), "relative quantities went negative"
    far = np.abs(v - vbar) > 1e-6
    assert np.all(q[far] > 0.0), "relative energy vanished off the diagonal"


def _suite_pattern_roundtrip(config, rng, composite):
    model = config.gas
    pattern = config.build_pattern()
    from .riemann import solve_intermediate_state
    re_solved = solve_intermediate_state(pattern.left, pattern.right, model,
                                         strength_cap=config.states.strength_cap)
    assert abs(re_solved.mid.v - pattern.mid.v) < 1e-9, "intermediate state did not round-trip"


def _suite_fan_identities(config, rng, composite):
    model = config.gas
    pattern = config.build_pattern()
    wave = RarefactionWave(pattern, model)
    if wave.degenerate:
        return
    x = np.linspace(*wave.support(3.0), 400)
    st = wave.eval(3.0, x, order=1)
    z1 = thermo.riemann_invariant_z1(st["v"], st["u"], model)
    assert np.max(np.abs(z1 - wave.z1)) < 1e-10, "slow invariant drifted across the fan"
    norm1 = wave.derivative_norms(0.0, 1, orders=(1,), field="u")[1]
    assert abs(norm1 - pattern.delta_R) < 1e-8, "fan velocity variation != strength"


def _suite_profile(config, rng, composite):
    profile = composite().profile
    if profile is None:
        return
    assert profile.self_residual() < 1e-8, "profile residual too large"
    assert abs(float(profile.volume(0.0)[0]) - 0.5 * (profile.v_m + profile.v_plus)) < 1e-10


def _suite_forcing_cancellation(config, rng, composite):
    x = np.linspace(-30.0, 30.0, 200)
    q2a = composite().aux_defect(1.0, x, 0.0, 1.0)
    q2b = composite().aux_defect(1.0, x, 0.0, 2.0)
    assert np.max(np.abs(q2b - 2.0 * q2a)) < 1e-13, "auxiliary forcing is not linear in the rate"


def _suite_weight_bounds(config, rng, composite):
    x = rng.uniform(-50.0, 50.0, size=2000)
    bar = composite().eval_bar(2.0, x, 0.3)
    a = bar["a"]
    assert np.all(a >= 1.0 - 1e-14) and np.all(a <= 2.0 + 1e-14), "weight left [1, 2]"
    assert np.all(bar["a_x"] >= 0.0), "weight is not monotone"


def _suite_hardy_legendre(config, rng, composite):
    y = np.linspace(0.0, 1.0, 2048)
    lhs, rhs = diagnostics.hardy_legendre_gap(y)
    assert abs(lhs - 1.0 / 12.0) < 1e-6 and abs(rhs - 1.0 / 12.0) < 1e-6
    for _ in range(20):
        coef = rng.uniform(-1.0, 1.0, size=6)
        lhs, rhs = diagnostics.hardy_legendre_gap(np.polyval(coef, y))
        assert lhs <= rhs + 1e-6, "Poincare-type inequality violated"


def _suite_scheme_equilibrium(config, rng, composite):
    model = config.gas
    pattern = config.build_pattern()
    grid = solver.Grid(-10.0, 10.0, 64)
    n = grid.n
    vt, ut, wt = solver.spatial_rhs(np.full(n, pattern.right.v), np.full(n, pattern.right.u),
                                    np.zeros(n), grid.dx, model)
    assert max(np.max(np.abs(vt)), np.max(np.abs(ut)), np.max(np.abs(wt))) == 0.0, \
        "constant state is not an equilibrium"


VERIFY_SUITES = [
    ("relative-quantities", _suite_relative_quantities),
    ("pattern-roundtrip", _suite_pattern_roundtrip),
    ("fan-identities", _suite_fan_identities),
    ("shock-profile", _suite_profile),
    ("forcing-cancellation", _suite_forcing_cancellation),
    ("weight-bounds", _suite_weight_bounds),
    ("hardy-legendre", _suite_hardy_legendre),
    ("scheme-equilibrium", _suite_scheme_equilibrium),
]


def _cmd_verify(config: RunConfig, out_dir: Path, seed: int) -> int:
    """Run every suite; a failed check or an error ``dispatch`` maps is a FAIL.

    Each suite gets ``composite()``, the config's composite wave: it is
    built, with its shock profile, on the first call and shared by the
    suites that need it.  When the build fails, the same error is raised
    again to each of them, so each reports it.
    """
    built = []

    def composite():
        if not built:
            try:
                built.append(solver.build_composite(config.build_pattern(), config.gas))
            except (*VALIDATION_ERRORS, *NUMERICAL_ERRORS) as exc:
                built.append(exc)
        if isinstance(built[0], Exception):
            raise built[0]
        return built[0]

    failures = 0
    for name, fn in VERIFY_SUITES:
        rng = np.random.default_rng(seed)
        try:
            fn(config, rng, composite)
        except (AssertionError, *VALIDATION_ERRORS, *NUMERICAL_ERRORS) as exc:
            print(f"FAIL {name}: {exc}")
            failures += 1
        else:
            print(f"PASS {name}")
    return EXIT_OK if failures == 0 else EXIT_NUMERICAL


_HANDLERS = {
    "riemann": _cmd_riemann,
    "profile": _cmd_profile,
    "rarefaction": _cmd_rarefaction,
    "interactions": _cmd_interactions,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
}

SUBCOMMANDS = tuple(_HANDLERS)


def dispatch(subcommand: str, config: RunConfig, out_dir=None, seed: int = 0) -> int:
    """Run one subcommand; returns the process exit code."""
    if subcommand not in _HANDLERS:
        print(f"unknown subcommand {subcommand!r}", file=sys.stderr)
        return EXIT_VALIDATION
    out = Path(out_dir) if out_dir is not None else Path(config.output.dir)
    try:
        return _HANDLERS[subcommand](config, out, seed)
    except VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nskwave",
        description="Composite rarefaction/shock waves for a capillary compressible fluid")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a run configuration file")
        p.add_argument("--out", default=None, help="output directory (overrides [output] dir)")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for randomized verification sampling")
    args = parser.parse_args(argv)
    try:
        config = parse_config(args.config)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return dispatch(args.subcommand, config, out_dir=args.out, seed=args.seed)


if __name__ == "__main__":
    sys.exit(main())
