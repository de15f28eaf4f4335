"""The benchmark's workloads: inputs made from a seed, the timed operation,
and the checks on its outputs.

Each workload derives its configuration from a config file of the
repository, overrides a few keys, writes the result under its output
directory and hands nskwave only that file.  A round is the workload's
operation once; ``check`` tests the outputs of a round against properties
of the method and against computations in ``reference``, never against a
stored copy of an earlier output.
"""
from __future__ import annotations

import json
import math
import random
import shutil
import sys
from contextlib import nullcontext, redirect_stdout
from pathlib import Path

import numpy as np

import nskwave
from nskwave import cli

import reference as ref

#: acceptance bounds on every record (criterion 7 of the test suite)
MASS_BOUND = 1e-6
CONSTRAINT_BOUND = 1e-4
#: below this a wave-interaction norm counts as zero (criterion 4)
NORM_FLOOR = 1e-18
#: the adaptive rule lands up to 8e-7 (t = 70) and 2.2e-6 (t = 80, MAX_INTERVALS
#: valve fired) from the dense reference, which refining its spacing from 0.01
#: to 0.00125 moves by at most 4e-7
NORM_REL_TOL = 1e-5
INTERACTION_KEYS = ("vSx_vR_L1", "vSx_vR_L2", "vRx_vSx_L1", "vRx_vSx_L2",
                    "vRx_vS_L2", "Q1I_L2", "Q2_L2")


class OperationFailed(RuntimeError):
    """A call into nskwave returned a failure exit code."""


def derive_config(base: Path, overrides: dict) -> str:
    """Text of ``base`` with the value of each ``(section, key)`` in
    ``overrides`` replaced; every overridden key must exist in ``base``."""
    section, seen, lines = None, set(), []
    for raw in base.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("["):
            section = line.strip("[] ")
        elif "=" in line:
            key = line.partition("=")[0].strip()
            if (section, key) in overrides:
                raw = f"{key} = {overrides[(section, key)]}"
                seen.add((section, key))
        lines.append(raw)
    missing = set(overrides) - seen
    if missing:
        raise ValueError(f"{base} has no keys {sorted(missing)}")
    return "\n".join(lines) + "\n"


def draw_bump(seed: int, ranges: dict) -> dict:
    """Gaussian bump parameters drawn uniformly from ``ranges`` in key order."""
    rng = random.Random(seed)
    return {key: rng.uniform(lo, hi) for key, (lo, hi) in ranges.items()}


def bump_overrides(bump: dict) -> dict:
    return {("perturbation", key): repr(value) for key, value in bump.items()}


def write_config(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


def read_csv(data: bytes):
    """(header, rows as a float array) of a CSV file written by nskwave."""
    lines = data.decode().splitlines()
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    return lines[0].split(","), np.array(rows, dtype=float)


def close(value, expected, rel, floor=0.0) -> bool:
    return abs(value - expected) <= rel * abs(expected) + floor


def null_span(name, items=0):
    """Stand-in for Tracer.span in untraced rounds."""
    return nullcontext()


class Workload:
    """A config derived from ``base`` and a round of calls into nskwave."""

    name = ""
    base = ""
    ops_per_round = 1
    config_path: Path

    def setup(self, span=null_span):
        """Parse the generated config and build its waves, as set-up does."""
        with span("config.parse_config"):
            self.config = nskwave.parse_config(self.config_path)
        with span("config.build_pattern"):
            pattern = self.config.build_pattern()
        self.composite = nskwave.solver.build_composite(pattern, self.config.gas)

    @staticmethod
    def same_output(a, b) -> bool:
        return a == b


class StabilityPair(Workload):
    """Criterion-7 run, its unperturbed twin and the response summary.

    Derived from configs/standard.cfg (n = 4649, delta_S = delta_R = 0.05);
    only t_end and the bump change.  Nearly all the time is the shift-rate
    ODE, which evaluates the fan on every node at every Runge-Kutta stage.
    """

    name = "stability-pair"
    base = "configs/standard.cfg"
    ops_per_round = 3
    t_end = 1.0
    bump_ranges = {"center": (-5.0, 5.0), "amplitude": (5e-4, 2e-3), "width": (8.0, 16.0)}

    def __init__(self, root: Path, out: Path, seed: int, t_end=None, n=None):
        if t_end is not None:
            self.t_end = t_end
        over = {("scheme", "t_end"): repr(self.t_end),
                **bump_overrides(draw_bump(seed, self.bump_ranges))}
        if n is not None:
            over[("grid", "n")] = str(n)
        base = root / self.base
        self.config_path = write_config(out / "perturbed.cfg", derive_config(base, over))
        over[("perturbation", "kind")] = "none"
        self.twin_path = write_config(out / "twin.cfg", derive_config(base, over))

    def setup(self, span=null_span):
        super().setup(span)
        self.twin_config = nskwave.parse_config(self.twin_path)

    def run_round(self, span=null_span):
        with span("nskwave.run"):
            perturbed = nskwave.run(self.config)
        with span("nskwave.run"):
            twin = nskwave.run(self.twin_config)
        with span("nskwave.response_summary"):
            response = nskwave.response_summary(perturbed, twin, self.config.gas)
        return perturbed, twin, response

    @staticmethod
    def same_output(a, b) -> bool:
        return all(x.records == y.records
                   and np.array_equal(x.snapshots[-1].v, y.snapshots[-1].v)
                   and np.array_equal(x.snapshots[-1].u, y.snapshots[-1].u)
                   for x, y in zip(a[:2], b[:2])) and a[2] == b[2]

    def check(self, output) -> list[str]:
        perturbed, twin, response = output
        problems = []
        times = [r.t for r in perturbed.records]
        if times != [r.t for r in twin.records]:
            problems.append("the perturbed run and the twin have different record times")
        if not close(times[-1], self.t_end, 0.0, 1e-9):
            problems.append(f"the last record is at t = {times[-1]!r}, not t_end = {self.t_end}")
        first = twin.records[0]
        if first.L2_phi != 0.0 or first.L2_psi != 0.0:
            problems.append(f"the twin starts off the ansatz: L2_phi = {first.L2_phi}, "
                            f"L2_psi = {first.L2_psi}")
        for label, result in (("perturbed", perturbed), ("twin", twin)):
            for r in result.records:
                if not (r.mass_defect < MASS_BOUND and r.constraint_defect < CONSTRAINT_BOUND):
                    problems.append(f"{label} t = {r.t:.6g}: mass_defect {r.mass_defect:.3e}, "
                                    f"constraint_defect {r.constraint_defect:.3e}")
            for s in result.snapshots:
                if not (np.all(s.a >= 1.0 - 1e-12) and np.all(s.a <= 2.0 + 1e-12)):
                    problems.append(f"{label} t = {s.t:.6g}: weight leaves [1, 2]")
                if not np.all(s.v > 0.0):
                    problems.append(f"{label} t = {s.t:.6g}: volume not positive")
            problems += self._check_shift_rate(label, result)
        problems += self._check_response(perturbed, twin, response)
        return problems

    def _check_shift_rate(self, label, result) -> list[str]:
        """Xdot of the last record against -M/delta_S int a psi (uS_x + p'(vS) vS_x / sigma)."""
        record, snap = result.records[-1], result.snapshots[-1]
        if snap.t != record.t:
            return [f"{label}: the last snapshot (t = {snap.t}) is not at the last record"]
        pattern, gamma = self.composite.pattern, self.config.gas.gamma
        dx = (snap.x[-1] - snap.x[0]) / (snap.x.size - 1)
        shock = nskwave.eval_profile(self.composite.profile,
                                     snap.x - pattern.sigma * record.t - record.X)
        integrand = snap.a * (snap.u - snap.ubar) * (
            shock["ux"] + ref.pressure_derivative(shock["v"], gamma) * shock["vx"] / pattern.sigma)
        gain = pattern.M / pattern.delta_S
        expected = -gain * ref.trapezoid(integrand, dx)
        scale = gain * ref.trapezoid(np.abs(integrand), dx)
        if not close(record.Xdot, expected, 0.0, 1e-10 * scale):
            return [f"{label}: Xdot {record.Xdot!r} differs from the shift formula {expected!r}"]
        return []

    def _check_response(self, perturbed, twin, response) -> list[str]:
        """sup and eta of the response, recomputed from the snapshot pairs."""
        gamma = self.config.gas.gamma
        problems = []
        for when, i in (("initial", 0), ("final", -1)):
            p, q = perturbed.snapshots[i], twin.snapshots[i]
            dx = (p.x[-1] - p.x[0]) / (p.x.size - 1)
            dphi = (p.v - p.vbar) - (q.v - q.vbar)
            dpsi = (p.u - p.ubar) - (q.u - q.ubar)
            sup = (max(np.max(np.abs(dphi)), np.max(np.abs(ref.gradient(dphi, dx))))
                   + np.max(np.abs(dpsi)))
            eta = ref.trapezoid(p.a * ref.relative_entropy(p.v, p.u, p.w, q.v, q.u, q.w, gamma),
                                dx)
            for key, expected in ((f"sup_{when}", sup), (f"eta_{when}", eta)):
                if not close(response[key], expected, 1e-9):
                    problems.append(f"response {key} = {response[key]!r}, "
                                    f"recomputed {float(expected)!r}")
        return problems


class RecordDense(Workload):
    """``nskwave simulate`` through cli.dispatch with a record on every step.

    Derived from configs/smoke.cfg (n = 512, delta_S = 0.1): t_end,
    output_stride = 1, formats = csv,ndjson and the bump change.  On this
    coarse grid per-call overhead, not array arithmetic, sets the cost, and
    collect_record (three background evaluations per record) dominates.
    """

    name = "record-dense"
    base = "configs/smoke.cfg"
    t_end = 20.0
    bump_ranges = {"center": (-10.0, 10.0), "amplitude": (5e-4, 2e-3), "width": (3.0, 9.0)}
    compared = ("L2_phi", "L2_psi", "L2_omega", "W1inf_phi", "Linf_psi", "eta_weighted",
                "constraint_defect")

    def __init__(self, root: Path, out: Path, seed: int, t_end=None):
        if t_end is not None:
            self.t_end = t_end
        over = {("scheme", "t_end"): repr(self.t_end), ("scheme", "output_stride"): "1",
                ("output", "formats"): "csv,ndjson",
                **bump_overrides(draw_bump(seed, self.bump_ranges))}
        self.config_path = write_config(out / "simulate.cfg",
                                        derive_config(root / self.base, over))
        self.out_dir = out / "simulate"
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def run_round(self, span=null_span):
        # simulate prints its summary; stdout carries only the benchmark's result
        with span("cli.dispatch"), redirect_stdout(sys.stderr):
            code = cli.dispatch("simulate", self.config, out_dir=self.out_dir)
        if code != cli.EXIT_OK:
            raise OperationFailed(f"simulate exited with {code}")
        return {p.name: p.read_bytes() for p in sorted(self.out_dir.iterdir())}

    def check(self, files) -> list[str]:
        problems = []
        header, rows = read_csv(files["timeseries.csv"])
        col = {name: rows[:, j] for j, name in enumerate(header)}
        lines = files["timeseries.ndjson"].decode().splitlines()
        if len(lines) != len(rows):
            problems.append(f"{len(lines)} NDJSON lines against {len(rows)} CSV rows")
        for i, (line, row) in enumerate(zip(lines, rows)):
            record = json.loads(line)
            if list(record) != header or [float(record[k]) for k in header] != row.tolist():
                problems.append(f"NDJSON line {i} differs from CSV row {i}")
                break
        t = col["t"]
        if t[0] != 0.0 or not np.all(np.diff(t) > 0.0) or not close(t[-1], self.t_end, 0.0, 1e-9):
            problems.append(f"t does not increase from 0 to t_end: {t[:3]} ... {t[-3:]}")
        if np.max(col["mass_defect"]) >= MASS_BOUND:
            problems.append(f"mass_defect reaches {np.max(col['mass_defect']):.3e}")
        if np.max(col["constraint_defect"]) >= CONSTRAINT_BOUND:
            problems.append(f"constraint_defect reaches {np.max(col['constraint_defect']):.3e}")
        last = max(name for name in files if name.startswith("snapshot_"))
        expected = self.recompute(*read_csv(files[last]))
        for key in self.compared:
            if not close(col[key][-1], expected[key], 1e-9, 1e-300):
                problems.append(f"last row {key} = {float(col[key][-1])!r}, "
                                f"recomputed from {last}: {expected[key]!r}")
        return problems

    def recompute(self, header, snap) -> dict:
        """The compared record columns from a snapshot table (x, v, u, w, bars, a)."""
        s = {name: snap[:, j] for j, name in enumerate(header)}
        gas = self.config.gas
        dx = (s["x"][-1] - s["x"][0]) / (s["x"].size - 1)
        phi, psi, omega = s["v"] - s["vbar"], s["u"] - s["ubar"], s["w"] - s["wbar"]

        def l2(f):
            return math.sqrt(ref.trapezoid(f * f, dx))

        eta = ref.relative_entropy(s["v"], s["u"], s["w"], s["vbar"], s["ubar"], s["wbar"],
                                   gas.gamma)
        w_def = -s["v"] ** (-0.5 * (gas.beta + 5.0)) * ref.gradient(s["v"], dx)
        return {
            "L2_phi": l2(phi), "L2_psi": l2(psi), "L2_omega": l2(omega),
            "W1inf_phi": max(np.max(np.abs(phi)), np.max(np.abs(ref.gradient(phi, dx)))),
            "Linf_psi": float(np.max(np.abs(psi))),
            "eta_weighted": ref.trapezoid(s["a"] * eta, dx),
            "constraint_defect": float(np.max(np.abs(s["w"] - w_def))),
        }


class InteractionsSweep(Workload):
    """``nskwave interactions`` through cli.dispatch on the criterion-7 pattern.

    Derived from configs/standard.cfg with t_end = 80, so the nine times
    0, 10, ..., 80 reach into the window where the waves separate and the
    adaptive quadrature refines hardest.  No time stepping, and no random
    input: the seed is not used.
    """

    name = "interactions-sweep"
    base = "configs/standard.cfg"
    t_end = 80.0
    #: spacing of the fixed Simpson grid of the reference norms
    reference_spacing = 0.01

    def __init__(self, root: Path, out: Path, seed: int, t_end=None):
        if t_end is not None:
            self.t_end = t_end
        self.config_path = write_config(
            out / "interactions.cfg",
            derive_config(root / self.base, {("scheme", "t_end"): repr(self.t_end)}))
        self.out_dir = out / "interactions"
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def run_round(self, span=null_span):
        with span("cli.dispatch"):
            code = cli.dispatch("interactions", self.config, out_dir=self.out_dir)
        if code != cli.EXIT_OK:
            raise OperationFailed(f"interactions exited with {code}")
        return (self.out_dir / "interactions.csv").read_bytes()

    def check(self, data) -> list[str]:
        header, rows = read_csv(data)
        if header != ["t", *INTERACTION_KEYS] or rows.shape != (9, 8):
            return [f"unexpected table: {header}, shape {rows.shape}"]
        problems = []
        times = [k * self.t_end / 8.0 for k in range(9)]
        if not np.allclose(rows[:, 0], times, rtol=0.0, atol=1e-12 * self.t_end):
            problems.append(f"times {rows[:, 0].tolist()} are not {times}")
        for row in rows:
            expected = self.dense_norms(row[0])
            for key, value in zip(INTERACTION_KEYS, row[1:]):
                ok = (value <= NORM_FLOOR if expected[key] <= NORM_FLOOR
                      else close(value, expected[key], NORM_REL_TOL))
                if not ok:
                    problems.append(f"t = {row[0]:g}: {key} = {float(value)!r}, "
                                    f"dense quadrature {expected[key]!r}")
        for j, key in enumerate(INTERACTION_KEYS, start=1):
            norms = rows[:, j]
            if not all(b <= a or b <= NORM_FLOOR for a, b in zip(norms[:-1], norms[1:])):
                problems.append(f"{key} increases in t: {norms.tolist()}")
        return problems

    def dense_norms(self, t) -> dict:
        """The seven norms by Simpson's rule on a fixed grid over the span of
        both waves (the fan's support and the shock table), at X = 0 and
        unit shift rate, with integrands from part_stacks, momentum_defect
        and aux_defect."""
        comp = self.composite
        fan_lo, fan_hi = comp.rarefaction.support(t)
        center = comp.pattern.sigma * t
        lo = min(fan_lo, center + comp.profile.xi_lo)
        hi = max(fan_hi, center + comp.profile.xi_hi)
        intervals = 2 * math.ceil((hi - lo) / (2.0 * self.reference_spacing))
        x_all = np.linspace(lo, hi, intervals + 1)
        weights = ref.simpson_weights(x_all.size, (hi - lo) / intervals)
        v_m = comp.pattern.mid.v
        sums = dict.fromkeys(INTERACTION_KEYS, 0.0)
        for start in range(0, x_all.size, 65536):
            x = x_all[start:start + 65536]
            wq = weights[start:start + 65536]
            fan, shock = comp.part_stacks(t, x, 0.0, order=1)
            terms = {
                "vSx_vR": np.abs(shock["vx"] * (fan["v"] - v_m)),
                "vRx_vSx": np.abs(fan["vx"] * shock["vx"]),
                "vRx_vS": np.abs(fan["vx"] * (shock["v"] - v_m)),
                "Q1I": np.abs(comp.momentum_defect(t, x, 0.0)[0]),
                "Q2": np.abs(comp.aux_defect(t, x, 0.0, 1.0)),
            }
            for key in INTERACTION_KEYS:
                name, _, norm = key.rpartition("_")
                sums[key] += float(np.dot(wq, terms[name] ** int(norm[1:])))
        return {key: max(total, 0.0) ** (1.0 / int(key[-1])) for key, total in sums.items()}


WORKLOADS = {w.name: w for w in (StabilityPair, RecordDense, InteractionsSweep)}
