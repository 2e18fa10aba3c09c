"""The three benchmark workloads: configs made from a seed, and checks.

Each workload runs one CLI command on a fixed problem shape.  The seed
is written into every config as the top-level `seed`; it drives the
random perturbation direction of dependence-2d and remainder-2d, while
solve-3d has deterministic data and only records it.

A run passes when the command exits 0, its artifact exists, the
properties below hold for any seed, and at DEFAULT_SEED every numeric
artifact column matches the reference stored in perfbench/reference.
"""

import copy
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

DEFAULT_SEED = 7919
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Changing the FFT backend moves artifact values by about 1e-13 relative
# on the trajectories and by at most about 1e-10 on the small output
# distances computed from them; any real defect moves them by far more.
REFERENCE_RTOL = 1e-8

DATUM = {"kind": "gaussian", "amplitude": 0.08, "width": 2.0}
DIRECTION = {"kind": "random", "band": 4}


def read_csv(path: Path):
    """Header and float rows of an artifact CSV (hash line skipped)."""
    lines = path.read_text().splitlines()
    if not lines or not lines[0].startswith("# config_hash="):
        raise ValueError(f"{path.name}: missing config_hash line")
    header = lines[1].split(",")
    rows = [[float(cell) for cell in line.split(",")] for line in lines[2:]]
    return header, rows


def compare_to_reference(path: Path, reference: Path,
                         rtol: float = REFERENCE_RTOL) -> list:
    """Problems found comparing every numeric column with a reference."""
    header, rows = read_csv(path)
    ref_header, ref_rows = read_csv(reference)
    if header != ref_header:
        return [f"{path.name}: header {header} != reference {ref_header}"]
    if len(rows) != len(ref_rows):
        return [f"{path.name}: {len(rows)} rows, reference has "
                f"{len(ref_rows)}"]
    problems = []
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        for column, a, b in zip(header, row, ref):
            same = ((math.isnan(a) and math.isnan(b))
                    or math.isclose(a, b, rel_tol=rtol, abs_tol=0.0))
            if not same:
                problems.append(f"{path.name} row {i} {column}: {a!r} vs "
                                f"reference {b!r}")
    return problems


def _check_solve(out_dir: Path, log: str) -> list:
    problems = []
    if "picard converged" not in log:
        problems.append("solve: Picard did not report convergence")
    _, rows = read_csv(out_dir / "solve.csv")
    if not all(math.isfinite(v) for row in rows for v in row):
        problems.append("solve.csv has non-finite values")
    return problems


def _check_dependence(out_dir: Path, log: str) -> list:
    summary = json.loads((out_dir / "dependence_summary.json").read_text())
    problems = []
    slope, r2 = summary.get("slope"), summary.get("r_squared")
    if slope is None or not 0.85 <= slope <= 1.15:
        problems.append(f"dependence: slope {slope} outside [0.85, 1.15]")
    if r2 is None or not r2 >= 0.99:
        problems.append(f"dependence: r^2 {r2} below 0.99")
    if summary.get("flags") != []:
        problems.append(f"dependence: flagged rows {summary.get('flags')}")
    return problems


def _check_remainder(out_dir: Path, log: str) -> list:
    _, rows = read_csv(out_dir / "remainder.csv")
    values = [row[2] for row in rows]
    problems = []
    if not all(a > b for a, b in zip(values, values[1:])):
        problems.append(f"remainder: integrated_K not strictly decreasing "
                        f"{values}")
    if not all(row[3] == 1.0 for row in rows):
        problems.append("remainder: a row did not converge")
    if not (values and values[0] > 0 and values[-1] / values[0] <= 1 / 8):
        problems.append(f"remainder: last/first "
                        f"{values[-1] / values[0] if values[0] else None} "
                        "above 1/8")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    command: str            # fracnls subcommand
    threads: int            # passed as --threads
    artifact: str           # CSV the command writes
    seeded: bool            # whether the seed changes the artifact
    problem: dict
    grid: dict
    time: dict
    extra: dict
    properties: Callable    # (out_dir, log) -> list of problems

    def config(self, seed: int) -> dict:
        return {"problem": dict(self.problem), "grid": dict(self.grid),
                "time": dict(self.time), "datum": dict(DATUM),
                "seed": seed, **copy.deepcopy(self.extra)}

    def stack_bytes(self) -> int:
        """Bytes of one complex trajectory stack, slices + 1 fields."""
        return ((self.time["slices"] + 1) * self.grid["points"]
                ** self.problem["dimension"] * 16)

    def check(self, out_dir: Path, seed: int, log: str) -> list:
        """Problems with one run's output; empty when the run passed."""
        path = out_dir / self.artifact
        if not path.is_file():
            return [f"missing artifact {self.artifact}"]
        try:
            problems = self.properties(out_dir, log)
            if seed == DEFAULT_SEED or not self.seeded:
                problems += compare_to_reference(
                    path, REFERENCE_DIR / f"{self.name}.csv")
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        return problems


WORKLOADS = {w.name: w for w in (
    # One large trajectory bound by memory and transforms: FFT, Picard
    # stack arithmetic and per-slice norms; no remainder work.
    Workload(
        name="solve-3d", command="solve", threads=1, artifact="solve.csv",
        seeded=False,
        problem={"dimension": 3, "regularity": 0.4, "power": 1.0},
        grid={"points": 64, "period": 32.0},
        time={"horizon": 0.25, "slices": 16},
        extra={"integrator": "picard"},
        properties=_check_solve),
    # The same solver, grid and norm layers used differently: ten
    # moderate Picard solves, nine split-step oracle solves, many norms,
    # and the only workload where the row thread pool runs.
    Workload(
        name="dependence-2d", command="dependence", threads=2,
        artifact="dependence.csv", seeded=True,
        problem={"dimension": 2, "regularity": 0.4, "power": 2.0},
        grid={"points": 128, "period": 32.0},
        time={"horizon": 0.25, "slices": 32},
        extra={"direction": DIRECTION,
               "family": {"initial_scale": 0.01, "depth": 8},
               "cross_check": True},
        properties=_check_dependence),
    # Nearly all time in the remainder functional; the control workload
    # for solver, grid and norm changes.
    Workload(
        name="remainder-2d", command="remainder", threads=1,
        artifact="remainder.csv", seeded=True,
        problem={"dimension": 2, "regularity": 0.4, "power": 2.0},
        grid={"points": 32, "period": 32.0},
        time={"horizon": 0.25, "slices": 4},
        extra={"direction": DIRECTION,
               "family": {"initial_scale": 0.01, "depth": 4},
               "remainder": {"shells": 12, "theta_nodes": 16}},
        properties=_check_remainder),
)}
