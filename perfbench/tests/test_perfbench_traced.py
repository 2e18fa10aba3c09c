"""The traced run changes nothing, and the run checks catch defects."""

import json
import shutil

import pytest

import fracnls.cli
from spans import SpanRecorder, Tracer, layer_metrics
from workloads import (DEFAULT_SEED, REFERENCE_DIR, WORKLOADS,
                       compare_to_reference)

# each workload's config at a size that runs in about a second
SHRINK = {
    "solve-3d": {"grid": {"points": 16, "period": 32.0},
                 "time": {"horizon": 0.25, "slices": 4}},
    "dependence-2d": {"grid": {"points": 32, "period": 32.0},
                      "time": {"horizon": 0.25, "slices": 8},
                      "family": {"initial_scale": 0.01, "depth": 4}},
    "remainder-2d": {"grid": {"points": 16, "period": 32.0},
                     "time": {"horizon": 0.25, "slices": 2},
                     "remainder": {"shells": 6, "theta_nodes": 4}},
}
COUNTS = ("grid.fft_calls", "grid.fft_points", "solver.picard_sweeps",
          "nonlinearity.remainder_K_calls")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_artifacts_are_byte_identical(name, tmp_path):
    workload = WORKLOADS[name]
    config = workload.config(DEFAULT_SEED)
    config.update(SHRINK[name])
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))

    def run(tag):
        args = [workload.command, "--config", str(path), "--output",
                str(tmp_path / tag), "--threads", str(workload.threads)]
        return fracnls.cli.main(args)

    assert run("plain") == 0
    counts = []
    for tag in ("traced", "again"):
        recorder = SpanRecorder()
        with Tracer(recorder) as tracer:
            assert run(tag) == 0
        assert tracer.notes == []
        metrics = layer_metrics(recorder.spans, workload.threads)
        assert metrics["cli.main_s"] > 0 and metrics["grid.fft_calls"] > 0
        counts.append({c: metrics[c] for c in COUNTS})
        for artifact in sorted((tmp_path / "plain").iterdir()):
            assert ((tmp_path / tag / artifact.name).read_bytes()
                    == artifact.read_bytes()), artifact.name
    assert counts[0] == counts[1]


def _perturbed_copy(tmp_path, name, row, column, factor):
    lines = (REFERENCE_DIR / f"{name}.csv").read_text().splitlines()
    cells = lines[2 + row].split(",")
    cells[column] = "%.16e" % (float(cells[column]) * factor)
    lines[2 + row] = ",".join(cells)
    path = tmp_path / f"{name}.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reference_check_separates_roundoff_from_defects(name, tmp_path):
    reference = REFERENCE_DIR / f"{name}.csv"
    assert compare_to_reference(reference, reference) == []
    close = _perturbed_copy(tmp_path, name, 1, 2, 1 + 1e-11)
    assert compare_to_reference(close, reference) == []
    off = _perturbed_copy(tmp_path, name, 1, 2, 1 + 1e-6)
    assert len(compare_to_reference(off, reference)) == 1


def test_remainder_properties_flag_a_stalled_decay(tmp_path):
    workload = WORKLOADS["remainder-2d"]
    shutil.copyfile(REFERENCE_DIR / "remainder-2d.csv",
                    tmp_path / "remainder.csv")
    assert workload.check(tmp_path, DEFAULT_SEED + 1, "") == []
    last = _perturbed_copy(tmp_path, "remainder-2d", 4, 2, 2.1)
    shutil.move(last, tmp_path / "remainder.csv")
    problems = workload.check(tmp_path, DEFAULT_SEED + 1, "")
    assert any("strictly decreasing" in p for p in problems)
    assert any("above 1/8" in p for p in problems)


def test_missing_artifact_fails_the_run(tmp_path):
    for workload in WORKLOADS.values():
        assert workload.check(tmp_path, DEFAULT_SEED, "") == [
            f"missing artifact {workload.artifact}"]
