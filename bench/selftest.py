"""Fast self-test of the benchmark's checks.

Usage (from the repository root): python3 bench/selftest.py

Runs each workload once on a shrunken input and requires its checks to
pass, then corrupts one output value at a time and requires the checks to
reject every corruption.  It also requires the metric names and units of
run.py and the workload names to match BENCHMARK.json.  Exits 1 on any
failure.
"""
from __future__ import annotations

import copy
import dataclasses
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

#: workload -> shrunken input
SHRUNK = {
    "stability-pair": {"t_end": 0.5, "n": 1163},
    "record-dense": {"t_end": 2.0},
    "interactions-sweep": {"t_end": 16.0},
}


def edit_csv(data: bytes, row: int, column: str, edit) -> bytes:
    """``data`` with ``edit(text)`` applied to one cell of a CSV file."""
    lines = data.decode().splitlines()
    j = lines[0].split(",").index(column)
    cells = lines[row].split(",")
    cells[j] = edit(cells[j])
    lines[row] = ",".join(cells)
    return ("\n".join(lines) + "\n").encode()


def scaled(factor):
    return lambda text: repr(float(text) * factor)


def stability_corruptions(output):
    def with_record(which, index, **changes):
        out = copy.deepcopy(output)
        records = out[which].records
        records[index] = dataclasses.replace(records[index], **changes)
        return out

    def with_weight():
        out = copy.deepcopy(output)
        out[0].snapshots[-1].a[len(out[0].snapshots[-1].a) // 2] = 2.1
        return out

    def with_response(key, factor):
        out = copy.deepcopy(output)
        out[2][key] *= factor
        return out

    last = output[0].records[-1]
    yield "perturbed Xdot off by 1e-6", with_record(0, -1, Xdot=last.Xdot * (1 + 1e-6))
    yield "twin not on the ansatz at t = 0", with_record(1, 0, L2_phi=1e-12)
    yield "last record time moved", with_record(0, -1, t=last.t + 1e-6)
    yield "mass defect above the bound", with_record(1, -1, mass_defect=2e-6)
    yield "weight above 2", with_weight()
    yield "response eta_final off by 1e-3", with_response("eta_final", 1.001)
    yield "response sup_initial off by 1e-3", with_response("sup_initial", 0.999)


def record_dense_corruptions(files):
    rows = files["timeseries.csv"].decode().count("\n") - 1
    last_snap = max(name for name in files if name.startswith("snapshot_"))

    def with_value(row, column, factor, ndjson=True):
        """The CSV cell and, unless told otherwise, the same NDJSON value scaled."""
        lines = files["timeseries.ndjson"].decode().splitlines()
        if ndjson:
            record = json.loads(lines[row - 1])
            record[column] *= factor
            lines[row - 1] = json.dumps(record)
        return {**files,
                "timeseries.csv": edit_csv(files["timeseries.csv"], row, column, scaled(factor)),
                "timeseries.ndjson": ("\n".join(lines) + "\n").encode()}

    yield "last-row L2_psi off by 1e-6", with_value(rows, "L2_psi", 1 + 1e-6)
    yield "last-row eta_weighted off by 1e-6", with_value(rows, "eta_weighted", 1 + 1e-6)
    yield "last-row constraint_defect doubled", with_value(rows, "constraint_defect", 2.0)
    yield "final t beyond t_end", with_value(rows, "t", 1.01)
    yield "a mass defect above the bound", with_value(rows // 2, "mass_defect", 1e12)
    yield "CSV Xdot differs from NDJSON", with_value(1, "Xdot", 1.5, ndjson=False)
    yield "snapshot v changed at one node", {
        **files, last_snap: edit_csv(files[last_snap], 200, "v", scaled(1 + 1e-7))}


def interactions_corruptions(data):
    yield "one norm off by 1e-4", edit_csv(data, 3, "Q1I_L2", scaled(1 + 1e-4))
    yield "a norm that grows in t", edit_csv(data, 7, "vSx_vR_L1", scaled(1e3))
    yield "one time moved", edit_csv(data, 2, "t", scaled(1.5))


CORRUPTIONS = {
    "stability-pair": stability_corruptions,
    "record-dense": record_dense_corruptions,
    "interactions-sweep": interactions_corruptions,
}


def check_names() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    if [(m["name"], m["unit"]) for m in spec["end_to_end"]] != run.END_TO_END:
        failures.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    layers = [(n, u) for n, u, _ in run.ROUND_METRICS] + run.PROCESS_METRICS
    if [(m["name"], m["unit"]) for m in spec["per_layer"]] != layers:
        failures.append("BENCHMARK.json per_layer differs from run.py's per-layer metrics")
    return failures


def main() -> int:
    failures = check_names()
    for name, cls in workloads.WORKLOADS.items():
        out = ROOT / ".bench_out" / "selftest" / name
        out.mkdir(parents=True, exist_ok=True)
        workload = cls(ROOT, out, 7, **SHRUNK[name])
        workload.setup()
        output = workload.run_round()
        problems = workload.check(output)
        print(f"{'PASS' if not problems else 'FAIL'} {name}: clean output accepted")
        failures += [f"{name}: {p}" for p in problems]
        for label, corrupted in CORRUPTIONS[name](output):
            rejected = workload.check(corrupted)
            print(f"{'PASS' if rejected else 'FAIL'} {name}: {label} rejected"
                  + (f" ({rejected[0]})" if rejected else ""))
            if not rejected:
                failures.append(f"{name}: {label} was accepted")
    for line in failures:
        print(f"FAIL {line}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
