"""fracnls benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that has the package source under
`src/`.  One workload per invocation:

* `--trace 0` times the `fracnls` CLI as a fresh child process, again
  and again for about S seconds, and reports the medians of wall time,
  CPU time and peak RSS of the child alone, plus `setup_s`, the median
  wall time of fresh interpreters that import `fracnls.cli` and load
  the workload config.
* `--trace 1` alternates an untraced child with a traced child
  (perfbench/traced_main.py) for about S seconds and reports the
  per-layer metrics of the traced runs, medians over the runs, plus
  `trace.overhead_s`, the traced minus the untraced median wall time.

Every CLI run is checked (see workloads.py); a run fails on a nonzero
exit, a missing artifact or a failed check, and traced artifacts must be
byte-identical to the untraced ones.  The last stdout line is one JSON
object with `correct`, `attempted`, `failed` and `metrics`; the line
before it is the run record.  Inputs, artifacts and records live under
`.perfbench/` in the checkout.
"""

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import spans as spanlib
from workloads import DEFAULT_SEED, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_PER_RUN = 2
CHILD_LIMIT_S = 150.0  # a child still running after this is killed

CLI = "import sys; from fracnls.cli import main; sys.exit(main())"
LOAD = ("import sys; from fracnls.cli import RunConfig; "
        "RunConfig.load(sys.argv[1], None, int(sys.argv[2]))")


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    code: int
    log: str


# The program's only threads are the ones --threads asks for.  A BLAS
# library left to start one thread per core spins on the shared cores
# and makes every run of a BLAS-using workload (remainder-2d) noisy.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}


def child_env() -> dict:
    env = dict(os.environ, **BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("FRACNLS_THREADS", None)  # it would override --threads
    return env


def run_child(argv, log_path: Path) -> Sample:
    """Run one child to completion; times and rusage of that child alone."""
    with open(log_path, "w") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL, env=child_env(),
                                cwd=ROOT)
        timer = threading.Timer(CHILD_LIMIT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                  peak_rss_mb=usage.ru_maxrss / 1024.0,
                  code=proc.returncode, log=log_path.read_text())


class WorkloadRun:
    """One benchmark invocation: its inputs, runs and failures."""

    def __init__(self, workload, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.config = workdir / "config.json"
        self.config.write_text(json.dumps(workload.config(seed), indent=2))

    def cli_args(self, out_dir: Path) -> list:
        return [self.workload.command, "--config", str(self.config),
                "--output", str(out_dir),
                "--threads", str(self.workload.threads)]

    def setup_sample(self) -> float:
        """Wall time of one fresh interpreter loading the config."""
        sample = run_child([sys.executable, "-c", LOAD, str(self.config),
                            str(self.workload.threads)],
                           self.workdir / "setup.log")
        if sample.code != 0:
            raise RuntimeError(f"setup child exited {sample.code}:\n"
                               f"{sample.log}")
        return sample.wall_s

    def run_cli(self, tag: str, untraced_out: Path = None):
        """One checked CLI run; returns (sample, out_dir, spans_path).

        With `untraced_out` the run is traced, and its artifacts must be
        byte-identical to those in that directory.
        """
        out_dir = self.workdir / tag
        spans_path = self.workdir / f"{tag}.spans.json"
        if untraced_out is None:
            argv = [sys.executable, "-c", CLI]
        else:
            argv = [sys.executable, str(ROOT / "perfbench" / "traced_main.py"),
                    str(spans_path)]
        sample = run_child(argv + self.cli_args(out_dir),
                           self.workdir / f"{tag}.log")
        self.attempted += 1
        if sample.code != 0:
            problems = [f"exit code {sample.code}: {sample.log[-2000:]}"]
        else:
            problems = self.workload.check(out_dir, self.seed, sample.log)
            if untraced_out is not None:
                problems += same_files(untraced_out, out_dir)
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"[{self.workload.name} {tag}] FAIL {problem}",
                      file=sys.stderr)
        return sample, out_dir, spans_path


def same_files(a: Path, b: Path) -> list:
    """Problems found comparing two artifact directories byte for byte."""
    if not a.is_dir():
        return [f"no untraced artifacts in {a.name} to compare with"]
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return [f"artifact sets differ: {names}"]
    return [f"{name} differs between traced and untraced runs"
            for name in names if (a / name).read_bytes()
            != (b / name).read_bytes()]


def another_fits(started: float, window_end: float) -> bool:
    """Whether a repeat of the iteration begun at `started` should end
    inside the measuring window."""
    now = time.perf_counter()
    return now + (now - started) <= window_end


def measure_untraced(bench: WorkloadRun, seconds: float) -> dict:
    bench.setup_sample()  # warm-up: byte-compiles a fresh checkout
    setup, samples = [], []
    window_end = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        sample, _, _ = bench.run_cli(f"run{len(samples)}")
        samples.append(sample)
        # set-up samples spread over the window see the same machine
        # states as the runs they sit between
        setup += [bench.setup_sample() for _ in range(SETUP_PER_RUN)]
        if not another_fits(started, window_end):
            break
    return {
        "values": {
            "wall_s": statistics.median(s.wall_s for s in samples),
            "cpu_s": statistics.median(s.cpu_s for s in samples),
            "peak_rss_mb": statistics.median(s.peak_rss_mb for s in samples),
            "setup_s": statistics.median(setup),
        },
        "samples": {
            "wall_s": [s.wall_s for s in samples],
            "cpu_s": [s.cpu_s for s in samples],
            "peak_rss_mb": [s.peak_rss_mb for s in samples],
            "setup_s": setup,
        },
    }


def measure_traced(bench: WorkloadRun, seconds: float) -> dict:
    plain_walls, traced_walls, per_run, notes = [], [], [], []
    backends, largest = {}, 0
    window_end = time.perf_counter() + seconds
    for n in itertools.count():
        started = time.perf_counter()
        plain, plain_out, _ = bench.run_cli(f"plain{n}")
        traced, _, spans_path = bench.run_cli(f"traced{n}", plain_out)
        plain_walls.append(plain.wall_s)
        traced_walls.append(traced.wall_s)
        if spans_path.is_file():
            payload = json.loads(spans_path.read_text())
            recorded = spanlib.spans_from_json(payload["spans"])
            per_run.append(spanlib.layer_metrics(recorded,
                                                 bench.workload.threads))
            notes = payload["notes"]
            backends = spanlib.fft_backends(recorded)
            largest = max(largest, spanlib.largest_fft_operand(recorded))
        if not another_fits(started, window_end):
            break
    if not per_run:
        raise RuntimeError("no traced run recorded spans")
    # the low median is one of the runs' own values, so counts stay whole
    values = {name: statistics.median_low(run[name] for run in per_run)
              for name in per_run[0]}
    values["trace.overhead_s"] = (statistics.median(traced_walls)
                                  - statistics.median(plain_walls))
    counts = ("grid.fft_calls", "grid.fft_points", "solver.picard_sweeps",
              "nonlinearity.remainder_K_calls")
    unsteady = [c for c in counts if len({run[c] for run in per_run}) > 1]
    return {
        "values": values,
        "samples": {"plain_wall_s": plain_walls,
                    "traced_wall_s": traced_walls},
        "tracer_notes": notes,
        "fft_backend_calls": backends,
        "largest_fft_operand_bytes": largest,
        "counts_differ_between_runs": unsteady,
    }


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def machine() -> dict:
    """nproc, CPU model and last-level cache, read from /proc and /sys."""
    model = next((line.split(":", 1)[1].strip()
                  for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    llc_level, llc = 0, None
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache.glob("index*")) if cache.is_dir() else ():
        level = int(_read(index / "level") or 0)
        if level >= llc_level and _read(index / "type") != "Instruction":
            llc_level, llc = level, _read(index / "size")
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "llc_level": llc_level, "llc_size": llc}


def parse_size(text) -> int:
    """Bytes in a sysfs cache size such as '307200K'."""
    if not text:
        return 0
    units = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}
    return int(text[:-1]) * units[text[-1]] if text[-1] in units else int(text)


def versions() -> dict:
    out = {"python": platform.python_version()}
    for package in ("numpy", "scipy"):
        try:
            out[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            out[package] = None
    return out


def git_commit():
    if not (ROOT / ".git").exists():
        return None  # a plain checkout: the commit is not recorded in it
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or None


def run_record(args, bench: WorkloadRun, result: dict) -> dict:
    workload = bench.workload
    host = machine()
    stack = workload.stack_bytes()
    llc = parse_size(host["llc_size"])
    record = {
        "workload": workload.name, "seed": bench.seed,
        "threads": workload.threads, "trace": args.trace,
        "seconds": args.seconds, "git_commit": git_commit(),
        **host, **versions(),
        "thread_env": BLAS_THREADS,
        "largest_array_bytes": stack,
        "largest_array": "one complex trajectory stack, (slices + 1) x "
                         "points^dim x 16 B",
        "fft_bytes_and_flops": "computed from array shapes",
        "bandwidth_claimed": bool(llc) and stack >= 4 * llc,
    }
    record.update({k: v for k, v in result.items() if k != "values"})
    if "fft_backend_calls" not in record:
        record["fft_backend_calls"] = "observed only with --trace 1"
    return record


def load_metric_specs(trace: int) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fracnls" / "cli.py").is_file():
        print(f"no fracnls package under {SRC}", file=sys.stderr)
        return 2
    specs = load_metric_specs(args.trace)
    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as workdir:
        bench = WorkloadRun(workload, args.seed % 2 ** 32, Path(workdir))
        measure = measure_traced if args.trace else measure_untraced
        result = measure(bench, args.seconds)
    record = run_record(args, bench, result)
    record_path = WORK / f"record-{workload.name}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n")
    metrics = {m["name"]: {"value": result["values"][m["name"]],
                           "unit": m["unit"]} for m in specs}
    print("run record: " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": bench.failed == 0,
                      "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
