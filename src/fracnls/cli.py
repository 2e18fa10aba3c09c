"""Batch front door: reproducible experiment runs from JSON configs.

Experiments are described by a config file, not flags; flags only pick
output paths and thread counts.  One table, `_SCHEMA`, gives each config
key its type and its default, or marks it required; `RunConfig.load`
reads every block present against it before any work.  Every artifact
embeds a short hash of the canonicalized config so outputs can be
matched to the exact run that produced them, and reruns with the same
config, seed and thread count are byte-identical.

Exit codes: 0 success, 1 check failure, 2 config or usage error (a run
whose arrays do not fit in memory included),
3 solver non-convergence or blow-up.
"""

import argparse
import inspect
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .dependence import (PerturbationFamily, choose_horizon,
                         default_direction, remainder_decay_experiment,
                         run_dependence, static_remainder_decay)
from .exponents import (HypothesisViolation, ProblemParams, canonical_pair,
                        derive, validate)
from .grid import Field, Grid, gaussian, lp_norm, plane_wave
from .nonlinearity import PowerNonlinearity, count_pointwise_violations
from .solver import (BlowUpError, NonConvergenceError, PicardConfig,
                     TimeGrid, picard_duhamel, split_step)
from .spaces import sobolev_besov_norms, sobolev_norm

# CPython's builtin SHA-256 gives hashlib's digest without loading
# OpenSSL's libcrypto (3.5 MiB of resident memory)
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.11
    except ImportError:
        from hashlib import sha256

__all__ = ["ConfigError", "RunConfig", "config_hash", "main"]


class ConfigError(Exception):
    """A config file is missing, malformed, or violates a precondition."""


def config_hash(config: dict) -> str:
    """Short stable digest of the canonicalized config."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return sha256(canonical.encode("utf-8")).hexdigest()[:12]


# ----------------------------------------------------------- config schema


def _is_count(value) -> bool:
    return type(value) is int  # a JSON integer; a bool is not one


def _is_real(value) -> bool:
    # a finite JSON number, never a bool; json reads Infinity and NaN
    return (type(value) in (int, float)
            and abs(value) <= sys.float_info.max)


def _is_complex(value) -> bool:
    return _is_real(value) or (type(value) is list and len(value) == 2
                               and all(map(_is_real, value)))


def _as_complex(value) -> complex:
    return complex(*value) if isinstance(value, list) else complex(value)


def _one_or_dim(spec):
    """The type of a value that is one value of type spec or a list of
    one per dimension; it is known once the problem block is read."""
    test, noun, _ = spec

    def typed(dim):
        return (lambda v: test(v) or (type(v) is list and len(v) == dim
                                      and all(map(test, v))),
                f"{noun} or a list of {dim} of them", None)
    return typed


# a type is (test, noun, conversion of a passing value or None[, largest])
_OBJECT = (lambda v: type(v) is dict, "a JSON object", None)
_FLAG = (lambda v: type(v) is bool, "true or false", None)
_TEXT = (lambda v: type(v) is str, "a string", None)
_LIST = (lambda v: type(v) is list, "a list", None)  # solve checks entries
_INTEGRATOR = (lambda v: v in ("picard", "split_step"),
               '"picard" or "split_step"', None)
_COUNT = (_is_count, "an integer", int)
_NODES = (lambda v: _is_count(v) and v >= 2, "an integer >= 2", int)
_NATURAL = (lambda v: _is_count(v) and _is_real(v) and v >= 0,
            "a non-negative integer in the float range", int)
_SEED = (lambda v: _is_count(v) and v >= 0, "a non-negative integer",
         int)  # np.random.default_rng takes no negative seed
_INT64 = (lambda v: _is_count(v) and -2 ** 63 <= v < 2 ** 63,
          "a 64-bit integer", int)  # the integer numpy takes
_REAL = (_is_real, "a number", float)
_POSITIVE = (lambda v: _is_real(v) and v > 0, "a positive number", float)
_WIDTH = (lambda v: _is_real(v) and 1e-150 <= v <= 1e150,
          "a number in [1e-150, 1e150]", float)  # width ** 2 is normal
_CENTER = (lambda v: _is_real(v) and abs(v) <= 1e150,
           "a number in [-1e150, 1e150]", float)  # (x - center) ** 2 is finite
_COMPLEX = (_is_complex, "a number or [re, im]", _as_complex)

_REQUIRED = object()  # a missing key is a config error
_UNSET = object()     # a missing key stays missing
_LARGEST = 2 ** 16  # slices, shells or sweeps

# Every key a command reads, block by block ("config" is the top level;
# datum and direction take the keys of their kind): key -> (type,
# default).  A callable default stands for its keyword of the same name,
# so a library default is written once.  Shells stay 16 here, as the
# artifacts were made, and 32 in the library (`spaces.offsets_kernel`
# and its callers), which the finite-difference Besov norm needs for its
# tested accuracy.  A count that sizes an array or a loop has a largest
# value, the last entry of its type (README.md gives each reason).
_SCHEMA = {
    "config": {
        "problem": (_OBJECT, _REQUIRED), "grid": (_OBJECT, _REQUIRED),
        "time": (_OBJECT, _UNSET), "datum": (_OBJECT, _UNSET),
        "direction": (_OBJECT, {}), "family": (_OBJECT, _UNSET),
        "auto_horizon": (_OBJECT, _UNSET), "solver": (_OBJECT, {}),
        "remainder": (_OBJECT, {}), "seed": (_SEED, None),
        "output_dir": (_TEXT, "."),
        "integrator": (_INTEGRATOR, "picard"), "snapshots": (_LIST, []),
        "cross_check": (_FLAG, run_dependence),
        "cross_tol": (_POSITIVE, run_dependence)},
    "problem": {"dimension": (_COUNT, _REQUIRED),
                "regularity": (_REAL, _REQUIRED),
                "power": (_REAL, _REQUIRED),
                "coupling": (_COMPLEX, ProblemParams)},
    "grid": {"points": (_COUNT, _REQUIRED), "period": (_REAL, _REQUIRED)},
    "time": {"horizon": (_REAL, _REQUIRED),
             "slices": (_COUNT + (_LARGEST,), _REQUIRED)},
    "family": {"initial_scale": (_REAL, _REQUIRED),
               "depth": (_COUNT + (1075,), _REQUIRED)},
    "auto_horizon": {"start": (_REAL, _REQUIRED),
                     "slices": (_COUNT + (_LARGEST,), _REQUIRED)},
    "solver": {"tol": (_REAL, PicardConfig),
               "max_iter": (_COUNT + (_LARGEST,), PicardConfig),
               "smallness_delta": (_REAL, PicardConfig)},
    "remainder": {"shells": (_NODES + (_LARGEST,), 16),
                  "theta_nodes": (_NODES + (100,), remainder_decay_experiment),
                  "static": (_FLAG, False)},
    "gaussian": {"amplitude": (_COMPLEX, gaussian),
                 "width": (_WIDTH, gaussian),
                 "center": (_one_or_dim(_CENTER), gaussian)},
    "plane_wave": {"mode": (_one_or_dim(_INT64), 1),
                   "amplitude": (_COMPLEX, plane_wave)},
    "random": {"band": (_NATURAL, 6)},
    "default": {"center": (_CENTER, default_direction),
                "width": (_WIDTH, default_direction)},
}
_KINDS = {"datum": ("gaussian", "plane_wave", "random"),
          "direction": ("gaussian", "plane_wave", "random", "default")}


def _read(block: dict, table: dict, where: str, dim=None) -> dict:
    """Check one block against its table and fill in its defaults: first
    unknown keys, then the type of every key given, then missing keys."""
    unknown = sorted(set(block) - set(table))
    if unknown:
        raise ConfigError("unknown key " + ", ".join(
            f"{where}.{key}" for key in unknown))
    out = {}
    for key, value in block.items():
        spec = table[key][0]
        test, noun, convert, *largest = spec(dim) if callable(spec) else spec
        if not test(value):
            name = key if spec is _OBJECT else f"{where}.{key}"
            raise ConfigError(f"{name} must be {noun}, got {value!r}")
        if largest and value > largest[0]:
            raise ConfigError(f"{where}.{key} must be at most "
                              f"{largest[0]}, got {value!r}")
        out[key] = value if convert is None else convert(value)
    for key, (_, default) in table.items():
        if key in out or default is _UNSET:
            continue
        if default is _REQUIRED:
            raise ConfigError(f"missing key {where}.{key}")
        out[key] = (inspect.signature(default).parameters[key].default
                    if callable(default) else default)
    return out


def _read_field(block: dict, where: str, dim: int, seed) -> tuple:
    """A datum or direction block as (kind, keys of that kind); a
    direction without a kind is the default direction."""
    kind = block["kind"] if "kind" in block else "default"
    if not (isinstance(kind, str) and kind in _KINDS[where]):
        if "kind" not in block:
            raise ConfigError(f"missing key {where}.kind")
        raise ConfigError(f"unknown field kind {kind!r} at {where}")
    keys = _read({key: value for key, value in block.items()
                  if key != "kind"}, _SCHEMA[kind], where, dim)
    if kind == "random" and seed is None:
        raise ConfigError(f"{where}.kind random needs a top-level seed")
    return kind, keys


def _read_config(raw: dict) -> dict:
    """Every block present, read once; datum and direction by kind."""
    config = _read(raw, _SCHEMA["config"], "config")
    for where in ("problem", "grid", "time", "family", "auto_horizon",
                  "solver", "remainder"):
        if where in config:
            config[where] = _read(config[where], _SCHEMA[where], where)
    for where in ("datum", "direction"):
        if where in config:
            config[where] = _read_field(config[where], where,
                                        config["problem"]["dimension"],
                                        config["seed"])
    return config


def _require(block: dict, key: str, where: str):
    if key not in block:
        raise ConfigError(f"missing key {where}.{key}")
    return block[key]


def _build_field(field: tuple, grid: Grid, seed: Optional[int]) -> Field:
    kind, keys = field
    if kind == "gaussian":
        return gaussian(grid, **keys)
    if kind == "plane_wave":
        return plane_wave(grid, **keys)
    return _band_limited_field(grid, np.random.default_rng(seed), **keys)


def _band_limited_field(grid: Grid, rng, band: int) -> Field:
    coefs = (rng.standard_normal(grid.shape)
             + 1j * rng.standard_normal(grid.shape))
    values = np.fft.ifftn(coefs * grid.band_mask(band))
    top = np.abs(values).max()
    return Field(grid, values / top if top > 0 else values)


def _build_family(config: dict, grid: Grid, params: ProblemParams,
                  seed: Optional[int]) -> PerturbationFamily:
    base = _build_field(_require(config, "datum", "config"), grid, seed)
    family = _require(config, "family", "config")
    kind, keys = config["direction"]
    if kind == "default":
        direction = default_direction(base, params.regularity, **keys)
    else:
        raw = _build_field(config["direction"], grid, seed)
        size = sobolev_norm(raw, params.regularity)
        if size == 0.0:
            raise ConfigError("direction has zero Sobolev norm")
        direction = (1.0 / size) * raw
    return PerturbationFamily(base=base, direction=direction,
                              regularity=params.regularity, **family)


@dataclass(frozen=True)
class RunConfig:
    """Validated experiment description plus its provenance hash; config
    holds every block read, with defaults filled in, and datum and
    direction as (kind, keys)."""

    config: dict
    digest: str
    params: ProblemParams
    grid: Grid
    solver: PicardConfig
    seed: Optional[int]
    threads: int
    output_dir: Path

    @classmethod
    def load(cls, path: str, output: Optional[str],
             threads: Optional[int]) -> "RunConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: "
                              f"{exc}") from exc
        if not isinstance(raw, dict) or not raw:
            raise ConfigError("config must be a non-empty JSON object")
        config = _read_config(raw)
        params = ProblemParams(**config["problem"])
        validate(params)
        resolved = 1 if threads is None else threads
        if resolved < 1:
            raise ConfigError(f"thread count must be >= 1, got {resolved}")
        out = Path(output if output is not None else config["output_dir"])
        return cls(config=config, digest=config_hash(raw), params=params,
                   grid=Grid(dim=params.dimension, **config["grid"]),
                   solver=PicardConfig(metric_pair=canonical_pair(params),
                                       **config["solver"]),
                   seed=config["seed"], threads=resolved, output_dir=out)


# ------------------------------------------------------------ file writers


def _format_cell(value) -> str:
    if value is None:
        return "nan"
    if isinstance(value, (int, np.integer, np.bool_)):  # bool is an int
        return str(int(value))
    return "%.16e" % float(value)


def _write_csv(path: Path, digest: str, columns, rows):
    lines = [f"# config_hash={digest}", ",".join(columns)]
    for row in rows:
        lines.append(",".join(_format_cell(cell) for cell in row))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, digest: str, payload: dict):
    payload = dict(payload)
    payload["config_hash"] = digest
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


# -------------------------------------------------------------- subcommands


def cmd_exponents(args) -> int:
    params = ProblemParams(dimension=args.dimension,
                           regularity=args.regularity, power=args.power)
    payload = derive(params).to_dict()
    print(json.dumps(payload, sort_keys=True, indent=2))
    return 0


# verify-pointwise draws and checks each power's pairs in chunks of at
# most this many, so its memory does not grow with --pairs
PAIR_CHUNK = 2 ** 18


def cmd_verify_pointwise(args) -> int:
    if args.pairs < 1:
        raise ConfigError(f"--pairs must be >= 1, got {args.pairs}")
    rng = np.random.default_rng(args.seed)
    failed = 0
    for alpha in (0.5, 1.0, 2.0, 3.0):
        spread = rng.uniform(0.2, 4.0, size=2)
        counts = np.zeros(2, dtype=int)
        for start in range(0, args.pairs, PAIR_CHUNK):
            n = min(PAIR_CHUNK, args.pairs - start)
            z1, z2 = (scale * (rng.standard_normal(n)
                               + 1j * rng.standard_normal(n))
                      for scale in spread)
            counts += count_pointwise_violations(z1, z2, alpha)
        modulus, phase = counts
        failed += modulus + phase
        print(f"alpha {alpha}: modulus violations {modulus}, "
              f"phase violations {phase} of {args.pairs} pairs")
    return 1 if failed else 0


# --- experiment commands


def _slice_norm_rows(traj, params, rho):
    pairs = sobolev_besov_norms(traj.grid, traj.values, params.regularity,
                                rho, homogeneous=True)
    return [(t, lp_norm(values, 2.0, traj.grid.cell_volume)) + pair
            for t, values, pair in zip(traj.timegrid.times, traj.values,
                                       pairs)]


def cmd_solve(args) -> int:
    rc = RunConfig.load(args.config, args.output, args.threads)
    tg = TimeGrid(**_require(rc.config, "time", "config"))
    datum = _require(rc.config, "datum", "config")
    snapshots = rc.config["snapshots"]
    for i, m in enumerate(snapshots):
        if not (_is_count(m) and 0 <= m <= tg.slices):
            raise ConfigError(f"snapshots[{i}] must be an integer in "
                              f"[0, {tg.slices}], got {m!r}")
    nl = PowerNonlinearity.from_params(rc.params)
    # the datum is built in the call and handed over: the integrator
    # copies it into slice 0, and no name here keeps it beside the stack
    if rc.config["integrator"] == "picard":
        traj, report = picard_duhamel(
            _build_field(datum, rc.grid, rc.seed), nl, tg, rc.solver)
        print(f"picard converged in {report.iterations} sweeps")
    else:
        traj = split_step(_build_field(datum, rc.grid, rc.seed), nl, tg)
    rho = rc.solver.metric_pair[1]
    _write_csv(rc.output_dir / "solve.csv", rc.digest,
               ("t", "l2", "sobolev", "besov"),
               _slice_norm_rows(traj, rc.params, rho))
    for m in snapshots:
        values = traj.field(m).values.ravel()
        _write_csv(rc.output_dir / f"solve_snapshot_{m}.csv", rc.digest,
                   ("index", "re", "im"),
                   [(i, v.real, v.imag) for i, v in enumerate(values)])
    print(f"wrote {rc.output_dir / 'solve.csv'}")
    return 0


def cmd_dependence(args) -> int:
    rc = RunConfig.load(args.config, args.output, args.threads)
    family = _build_family(rc.config, rc.grid, rc.params, rc.seed)
    smallness = None
    if "auto_horizon" in rc.config:
        auto = rc.config["auto_horizon"]
        try:
            tg, smallness = choose_horizon(rc.params, family, rc.solver,
                                           auto["start"], auto["slices"],
                                           threads=rc.threads)
        except RuntimeError as exc:
            raise ConfigError(f"auto_horizon gave up: {exc}") from exc
    else:
        tg = TimeGrid(**_require(rc.config, "time", "config"))
    report = run_dependence(rc.params, family, rc.solver, tg,
                            cross_check=rc.config["cross_check"],
                            cross_tol=rc.config["cross_tol"],
                            threads=rc.threads, smallness=smallness)
    summary = report.to_dict()  # a degenerate fit raises before any write
    slopes = report.running_slopes()
    csv_rows = [(k, row.scale, row.input_distance, row.sup_sobolev,
                 row.spacetime_besov, row.spacetime_lebesgue, slopes[k])
                for k, row in enumerate(report.rows)]
    _write_csv(rc.output_dir / "dependence.csv", rc.digest,
               ("k", "eps", "in_Hs", "out_sup_Hs", "out_Lgamma_Besov",
                "out_Lgamma_Lsigma", "slope_running"), csv_rows)
    _write_json(rc.output_dir / "dependence_summary.json", rc.digest,
                summary)
    print(f"wrote {rc.output_dir / 'dependence.csv'} "
          f"({len(report.rows)} rows, {len(summary['flags'])} flagged)")
    return 0


def cmd_remainder(args) -> int:
    rc = RunConfig.load(args.config, args.output, args.threads)
    block = rc.config["remainder"]
    family = _build_family(rc.config, rc.grid, rc.params, rc.seed)
    theta, shells = block["theta_nodes"], block["shells"]
    if block["static"]:
        rows = static_remainder_decay(rc.params, family, rc.solver,
                                      theta_nodes=theta, shells=shells)
    else:
        tg = TimeGrid(**_require(rc.config, "time", "config"))
        rows = remainder_decay_experiment(rc.params, family, rc.solver, tg,
                                          theta_nodes=theta, shells=shells,
                                          threads=rc.threads)
    _write_csv(rc.output_dir / "remainder.csv", rc.digest,
               ("k", "eps", "integrated_K", "converged"),
               [(k, row.scale, row.integrated, row.converged)
                for k, row in enumerate(rows)])
    print(f"wrote {rc.output_dir / 'remainder.csv'} ({len(rows)} rows)")
    return 0


# ------------------------------------------------------------------- driver


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracnls",
        description="Dispersive model problem: exponents, norms, "
                    "integrators and dependence experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exponents", help="derive the exponent set")
    p.add_argument("dimension", type=int)
    p.add_argument("regularity", type=float)
    p.add_argument("power", type=float)
    p.set_defaults(func=cmd_exponents)

    p = sub.add_parser("verify-pointwise",
                       help="sweep the pointwise difference inequalities")
    p.add_argument("--pairs", type=int, default=200000)
    p.add_argument("--seed", type=int, default=20260822)
    p.set_defaults(func=cmd_verify_pointwise)

    for name, func in (("solve", cmd_solve), ("dependence", cmd_dependence),
                       ("remainder", cmd_remainder)):
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", required=True)
        p.add_argument("--output", default=None,
                       help="output directory (default: config output_dir)")
        p.add_argument("--threads", type=int, default=None, help=(
            "ignored: solve runs on one thread" if name == "solve" else
            "worker threads (default: 1)"))
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except HypothesisViolation as exc:  # a ValueError, with its own tag
        print(f"config error [hypothesis={exc.hypothesis}]: {exc}",
              file=sys.stderr)
        return 2
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"config error: grid.points and time.slices ask for more "
              f"memory than there is: {exc}", file=sys.stderr)
        return 2
    except NonConvergenceError as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return 3
    except BlowUpError as exc:
        print(f"solution blew up: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
