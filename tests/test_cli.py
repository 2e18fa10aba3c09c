"""End-to-end checks of the batch front door: exit codes, artifacts,
reproducibility."""

import json
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import fracnls.cli
import fracnls.dependence
from fracnls.cli import (ConfigError, RunConfig, _slice_norm_rows,
                         config_hash, main)
from fracnls.exponents import ProblemParams, canonical_pair
from fracnls.grid import Grid, gaussian
from fracnls.nonlinearity import PowerNonlinearity
from fracnls.solver import PicardConfig, TimeGrid, picard_duhamel
from trajectories import stack_bytes, traced_peak

PROBLEM = {"dimension": 1, "regularity": 0.4, "power": 2.0, "coupling": 1.0}


def _write_config(tmp_path, name="config.json", **overrides):
    config = {
        "problem": dict(PROBLEM),
        "grid": {"points": 64, "period": 32.0},
        "datum": {"kind": "gaussian", "amplitude": 0.08, "width": 2.0},
        "time": {"horizon": 0.25, "slices": 16},
        "output_dir": str(tmp_path / "out"),
    }
    config.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path, config


def _read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


# ------------------------------------------------------------- exponents


def test_exponents_prints_table(capsys):
    assert main(["exponents", "1", "0.4", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["criticality"] == "subcritical"
    assert abs(payload["gamma"] - 40.0) < 1e-10
    assert abs(payload["rho"] - 20.0 / 9.0) < 1e-12
    assert abs(payload["sigma"] - 20.0) < 1e-10


def test_exponents_rejects_bad_regularity(capsys):
    assert main(["exponents", "1", "0.8", "2"]) == 2
    err = capsys.readouterr().err
    assert "hypothesis=" in err


def test_exponents_critical_reports_endpoint(capsys):
    assert main(["exponents", "3", "0.5", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["criticality"] == "critical"
    assert payload["q0"] is not None and payload["r0"] is not None


@pytest.mark.parametrize("args, hypothesis", [
    (["1", "0.4", "inf"], "power_range"),
    (["1", "0.4", "nan"], "power_range"),
    (["--", "1", "0.4", "-inf"], "power_range"),
    (["1", "inf", "2"], "regularity_range"),
    (["1", "nan", "2"], "regularity_range")])
def test_exponents_rejects_non_finite(capsys, args, hypothesis):
    assert main(["exponents", *args]) == 2
    assert f"[hypothesis={hypothesis}]" in capsys.readouterr().err


# ------------------------------------------------------------------ sweeps


def test_verify_pointwise_clean(capsys):
    assert main(["verify-pointwise", "--pairs", "20000"]) == 0
    out = capsys.readouterr().out
    assert out.count("violations 0") >= 4


@pytest.mark.parametrize("pairs", ["0", "-5"])
def test_verify_pointwise_needs_a_pair(capsys, pairs):
    # zero pairs would report a pass having checked nothing
    assert main(["verify-pointwise", "--pairs", pairs]) == 2
    captured = capsys.readouterr()
    assert "--pairs must be >= 1" in captured.err and captured.out == ""


def test_verify_pointwise_draws_in_chunks(capsys, monkeypatch):
    # eight full chunks and a short one per power; drawn at once, the
    # pairs would take about 105 bytes each, 3.4 MB here
    monkeypatch.setattr(fracnls.cli, "PAIR_CHUNK", 4096)
    pairs = 8 * 4096 + 3
    main(["verify-pointwise", "--pairs", "5"])  # warm numpy's first calls
    tracemalloc.start()
    try:
        code = main(["verify-pointwise", "--pairs", str(pairs)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    out = capsys.readouterr().out
    assert out.count(f"violations 0 of {pairs} pairs") == 4
    assert peak <= 200 * 4096


# ------------------------------------------------------------------ solve


def test_solve_writes_norm_history(tmp_path, capsys):
    path, config = _write_config(tmp_path)
    assert main(["solve", "--config", str(path)]) == 0
    header, rows = _read_csv(tmp_path / "out" / "solve.csv")
    assert header == ["t", "l2", "sobolev", "besov"]
    assert len(rows) == config["time"]["slices"] + 1
    assert float(rows[0][0]) == 0.0
    assert abs(float(rows[-1][0]) - 0.25) < 1e-15


def test_solve_free_flow_constant_sobolev(tmp_path):
    problem = dict(PROBLEM, coupling=0.0)
    path, _ = _write_config(tmp_path, problem=problem)
    assert main(["solve", "--config", str(path)]) == 0
    _, rows = _read_csv(tmp_path / "out" / "solve.csv")
    sob = np.array([float(r[2]) for r in rows])
    assert sob.max() - sob.min() <= 1e-10 * sob[0]


def test_solve_split_integrator(tmp_path):
    path, _ = _write_config(tmp_path, integrator="split_step",
                            time={"horizon": 0.25, "slices": 25})
    assert main(["solve", "--config", str(path)]) == 0
    _, rows = _read_csv(tmp_path / "out" / "solve.csv")
    assert len(rows) == 26
    l2 = np.array([float(r[1]) for r in rows])
    assert abs(l2[-1] - l2[0]) < 1e-8 * l2[0]


def test_solve_snapshots(tmp_path):
    path, _ = _write_config(tmp_path, snapshots=[0, 16])
    assert main(["solve", "--config", str(path)]) == 0
    header, rows = _read_csv(tmp_path / "out" / "solve_snapshot_16.csv")
    assert header == ["index", "re", "im"]
    assert len(rows) == 64


@pytest.mark.parametrize("snapshots, bad", [([-1], 0), ([0, 17], 1),
                                            ([2.5], 0), ([True], 0)])
def test_solve_snapshots_out_of_range_exit_2(tmp_path, capsys, snapshots,
                                             bad):
    path, _ = _write_config(tmp_path, snapshots=snapshots)
    assert main(["solve", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"snapshots[{bad}]" in err and "[0, 16]" in err
    assert not (tmp_path / "out").exists()


def test_solve_nonconvergence_exits_3(tmp_path, capsys):
    path, _ = _write_config(
        tmp_path,
        datum={"kind": "gaussian", "amplitude": 1.5, "width": 2.0},
        time={"horizon": 1.0, "slices": 64}, solver={"max_iter": 3})
    assert main(["solve", "--config", str(path)]) == 3
    assert "did not converge" in capsys.readouterr().err


def test_solve_blowup_exits_3(tmp_path, capsys):
    problem = dict(PROBLEM, coupling=[0.0, -1.0])
    path, _ = _write_config(
        tmp_path, problem=problem, integrator="split_step",
        datum={"kind": "gaussian", "amplitude": 8.0, "width": 2.0},
        time={"horizon": 1.0, "slices": 100})
    assert main(["solve", "--config", str(path)]) == 3
    assert "blew up" in capsys.readouterr().err


def test_solve_split_step_overflow_exits_3_without_warning(tmp_path, capsys):
    # a split-step overflow is a blow-up, as a Picard one is, and numpy
    # warns about none of the overflow on the way to it
    path, _ = _write_config(
        tmp_path, integrator="split_step",
        datum={"kind": "gaussian", "amplitude": 1e200, "width": 2.0})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["solve", "--config", str(path)]) == 3
    assert caught == []
    err = capsys.readouterr().err
    assert "blew up" in err and "Warning" not in err
    assert not (tmp_path / "out").exists()


def test_solve_picard_overflow_exits_3_without_warning(tmp_path, capsys):
    # the datum's transform overflows before the first sweep, and numpy
    # warns about none of it
    path, _ = _write_config(
        tmp_path, integrator="picard",
        datum={"kind": "gaussian", "amplitude": 1e308, "width": 2.0})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["solve", "--config", str(path)]) == 3
    assert caught == []
    err = capsys.readouterr().err
    assert "blew up" in err and "Warning" not in err
    assert not (tmp_path / "out").exists()


def test_solve_unknown_integrator(tmp_path, capsys):
    path, _ = _write_config(tmp_path, integrator="leapfrog")
    assert main(["solve", "--config", str(path)]) == 2
    assert "integrator" in capsys.readouterr().err


def test_solve_rejects_unknown_solver_key(tmp_path, capsys):
    path, _ = _write_config(tmp_path,
                            solver={"tolerance": 1e-3, "maxiter": 1})
    assert main(["solve", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "solver.maxiter" in err and "solver.tolerance" in err
    assert not (tmp_path / "out" / "solve.csv").exists()


def test_solve_3d_picard_deterministic(tmp_path):
    path, _ = _write_config(
        tmp_path, problem={"dimension": 3, "regularity": 0.4, "power": 1.0},
        grid={"points": 16, "period": 16.0},
        time={"horizon": 0.25, "slices": 8}, snapshots=[8])
    outputs = []
    for run, threads in (("first", "1"), ("second", "1"), ("threaded", "2")):
        out = tmp_path / run
        assert main(["solve", "--config", str(path), "--output", str(out),
                     "--threads", threads]) == 0
        outputs.append([(out / name).read_bytes()
                        for name in ("solve.csv", "solve_snapshot_8.csv")])
    assert outputs[0] == outputs[1] == outputs[2]


def test_solve_peak_memory_one_stack_and_eight_slices(tmp_path):
    # the command hands the datum to Picard, which drops it once slice 0
    # and its transform are taken, and no |k|^2 mesh is cached: at the
    # peak a sweep holds the stack, the datum's transform, its scratch
    # slices, the level index and its norms' temporaries
    grid, tg = Grid(3, 32, 32.0), TimeGrid(0.25, 8)
    path, _ = _write_config(
        tmp_path, problem={"dimension": 3, "regularity": 0.4, "power": 1.0},
        grid={"points": grid.points, "period": grid.period},
        time={"horizon": tg.horizon, "slices": tg.slices})
    peak = traced_peak(main, ["solve", "--config", str(path)])
    assert peak <= stack_bytes(grid, tg) + 8 * grid.size * 16


def test_slice_norm_rows_peak_below_the_picard_solve():
    # the norm column holds one Besov scratch (two and a half slices) for
    # every slice, the Sobolev weight and one slice's magnitudes, so beside
    # the trajectory it stays below the solve that made it
    grid, tg = Grid(3, 32, 32.0), TimeGrid(0.25, 8)
    params = ProblemParams(dimension=3, regularity=0.4, power=1.0)
    cfg = PicardConfig(metric_pair=canonical_pair(params))
    phi = gaussian(grid, 0.08, 2.0)
    tracemalloc.start()
    try:
        traj, _ = picard_duhamel(phi, PowerNonlinearity(1.0, 1.0), tg, cfg)
        solve_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    norms_peak = traced_peak(_slice_norm_rows, traj, params,
                             cfg.metric_pair[1])
    assert stack_bytes(grid, tg) + norms_peak < solve_peak
    assert norms_peak <= 4 * grid.size * 16


def test_solve_help_says_threads_is_ignored(capsys):
    assert main(["solve", "--help"]) == 0
    assert "ignored: solve runs on one thread" in capsys.readouterr().out


def test_solve_plane_wave_datum(tmp_path):
    path, _ = _write_config(
        tmp_path, datum={"kind": "plane_wave", "mode": 2, "amplitude": 0.3})
    assert main(["solve", "--config", str(path)]) == 0
    _, rows = _read_csv(tmp_path / "out" / "solve.csv")
    l2 = np.array([float(r[1]) for r in rows])
    assert l2.max() - l2.min() <= 1e-8 * l2[0]


def test_solve_random_datum_needs_seed(tmp_path, capsys):
    path, _ = _write_config(tmp_path, datum={"kind": "random", "band": 6})
    assert main(["solve", "--config", str(path)]) == 2
    assert "seed" in capsys.readouterr().err


def test_solve_random_datum_with_seed(tmp_path):
    path, _ = _write_config(
        tmp_path, seed=7,
        datum={"kind": "random", "band": 4},
        time={"horizon": 0.05, "slices": 8})
    assert main(["solve", "--config", str(path)]) == 0


# ------------------------------------------------------------- dependence


def _dependence_config(tmp_path, **overrides):
    return _write_config(
        tmp_path,
        family={"initial_scale": 0.01, "depth": 4},
        **overrides)


def test_dependence_artifacts(tmp_path):
    path, config = _dependence_config(tmp_path)
    assert main(["dependence", "--config", str(path)]) == 0
    header, rows = _read_csv(tmp_path / "out" / "dependence.csv")
    assert header == ["k", "eps", "in_Hs", "out_sup_Hs", "out_Lgamma_Besov",
                      "out_Lgamma_Lsigma", "slope_running"]
    assert len(rows) == config["family"]["depth"] + 1
    assert rows[0][-1] == "nan"
    assert abs(float(rows[-1][-1]) - 1.0) < 0.2
    summary = json.loads(
        (tmp_path / "out" / "dependence_summary.json").read_text())
    for key in ("slope", "r_squared", "lipschitz_constant", "flags",
                "config_hash", "rows", "horizon"):
        assert key in summary
    assert summary["flags"] == []
    assert 0.85 <= summary["slope"] <= 1.15


def test_dependence_rerun_byte_identical(tmp_path):
    path, _ = _dependence_config(tmp_path)
    assert main(["dependence", "--config", str(path)]) == 0
    first = (tmp_path / "out" / "dependence.csv").read_bytes()
    out2 = tmp_path / "second"
    assert main(["dependence", "--config", str(path),
                 "--output", str(out2)]) == 0
    assert (out2 / "dependence.csv").read_bytes() == first


def test_dependence_threads_flag_identical(tmp_path):
    path, _ = _dependence_config(tmp_path)
    assert main(["dependence", "--config", str(path)]) == 0
    first = (tmp_path / "out" / "dependence.csv").read_bytes()
    out2 = tmp_path / "threaded"
    assert main(["dependence", "--config", str(path), "--threads", "3",
                 "--output", str(out2)]) == 0
    assert (out2 / "dependence.csv").read_bytes() == first


def test_dependence_smallness_gate(tmp_path, capsys):
    path, _ = _dependence_config(
        tmp_path, datum={"kind": "gaussian", "amplitude": 0.8, "width": 2.0})
    assert main(["dependence", "--config", str(path)]) == 2
    assert "shrink" in capsys.readouterr().err


def test_dependence_auto_horizon_give_up_exits_2(tmp_path, capsys):
    path, _ = _dependence_config(
        tmp_path, datum={"kind": "gaussian", "amplitude": 50.0, "width": 2.0},
        auto_horizon={"start": 1.0, "slices": 64})
    assert main(["dependence", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: auto_horizon")
    assert "smallness" in err and err.count("\n") == 1
    assert not (tmp_path / "out" / "dependence.csv").exists()


def test_dependence_auto_horizon_gates_each_horizon_once(tmp_path,
                                                        monkeypatch):
    tried = []
    real = fracnls.dependence.smallness_check

    def counted(phi, tg, cfg, params):
        tried.append(tg)
        return real(phi, tg, cfg, params)

    monkeypatch.setattr(fracnls.dependence, "smallness_check", counted)
    path, _ = _dependence_config(
        tmp_path, datum={"kind": "gaussian", "amplitude": 0.11, "width": 2.0},
        auto_horizon={"start": 1.0, "slices": 128})
    outputs = []
    for threads in ("1", "2"):  # with 2 the gate norms share the pool
        tried.clear()
        out = tmp_path / f"threads-{threads}"
        assert main(["dependence", "--config", str(path), "--output",
                     str(out), "--threads", threads]) == 0
        summary = json.loads((out / "dependence_summary.json").read_text())
        horizons = sorted(set(tried), key=lambda tg: -tg.horizon)
        assert len(horizons) >= 2  # the start horizon fails the gate
        # two gate norms per horizon tried, in order, and none after the
        # last
        assert tried == [tg for tg in horizons for _ in range(2)]
        assert (horizons[-1].horizon, horizons[-1].slices) == (
            summary["horizon"], summary["slices"])
        outputs.append([(out / name).read_bytes() for name in
                        ("dependence.csv", "dependence_summary.json")])
    assert outputs[0] == outputs[1]


# -------------------------------------------------------------- remainder


def test_remainder_artifacts(tmp_path):
    path, _ = _write_config(
        tmp_path,
        family={"initial_scale": 0.01, "depth": 3},
        time={"horizon": 0.25, "slices": 8},
        remainder={"theta_nodes": 12, "shells": 10})
    assert main(["remainder", "--config", str(path)]) == 0
    header, rows = _read_csv(tmp_path / "out" / "remainder.csv")
    assert header == ["k", "eps", "integrated_K", "converged"]
    assert len(rows) == 4
    values = [float(r[2]) for r in rows]
    assert all(a > b > 0 for a, b in zip(values, values[1:]))
    assert all(r[3] == "1" for r in rows)


def test_remainder_static_mode(tmp_path):
    path, _ = _write_config(
        tmp_path,
        datum={"kind": "gaussian", "amplitude": 1.0, "width": 2.0},
        family={"initial_scale": 0.5, "depth": 4},
        remainder={"theta_nodes": 12, "shells": 10, "static": True})
    assert main(["remainder", "--config", str(path)]) == 0
    _, rows = _read_csv(tmp_path / "out" / "remainder.csv")
    values = [float(r[2]) for r in rows]
    assert all(a > b > 0 for a, b in zip(values, values[1:]))


def test_remainder_static_needs_no_time_block(tmp_path):
    # the static mode never reads time, so a config without it runs and
    # writes the same rows; only the config_hash line differs
    path, config = _write_config(
        tmp_path,
        datum={"kind": "gaussian", "amplitude": 1.0, "width": 2.0},
        family={"initial_scale": 0.5, "depth": 2},
        remainder={"theta_nodes": 12, "shells": 10, "static": True})
    untimed = dict(config, output_dir=str(tmp_path / "untimed"))
    del untimed["time"]
    (tmp_path / "untimed.json").write_text(json.dumps(untimed))
    assert main(["remainder", "--config", str(path)]) == 0
    assert main(["remainder", "--config",
                 str(tmp_path / "untimed.json")]) == 0
    timed, bare = ((tmp_path / out / "remainder.csv").read_bytes()
                   .split(b"\n", 1) for out in ("out", "untimed"))
    assert timed[0] != bare[0] and timed[1] == bare[1]


def test_remainder_rejects_unknown_key(tmp_path, capsys):
    path, _ = _write_config(
        tmp_path,
        family={"initial_scale": 0.01, "depth": 3},
        remainder={"theta": 8, "shells": 10})
    assert main(["remainder", "--config", str(path)]) == 2
    assert "remainder.theta" in capsys.readouterr().err
    assert not (tmp_path / "out" / "remainder.csv").exists()


# ---------------------------------------------------- config handling


def test_missing_config_flag():
    assert main(["solve"]) == 2


def test_config_not_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["solve", "--config", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_config_missing_file(capsys):
    assert main(["solve", "--config", "/nonexistent/nowhere.json"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_config_missing_key(tmp_path, capsys):
    path = tmp_path / "partial.json"
    path.write_text(json.dumps({"problem": dict(PROBLEM)}))
    assert main(["solve", "--config", str(path)]) == 2
    assert "missing key" in capsys.readouterr().err


def test_config_bad_hypothesis(tmp_path, capsys):
    path, _ = _write_config(tmp_path,
                            problem={"dimension": 1, "regularity": 0.8,
                                     "power": 2.0})
    assert main(["solve", "--config", str(path)]) == 2
    assert "hypothesis=" in capsys.readouterr().err


def test_config_unknown_field_kind(tmp_path, capsys):
    path, _ = _write_config(tmp_path, datum={"kind": "soliton"})
    assert main(["solve", "--config", str(path)]) == 2
    assert "soliton" in capsys.readouterr().err


def test_config_complex_amplitude(tmp_path):
    path, _ = _write_config(
        tmp_path,
        datum={"kind": "gaussian", "amplitude": [0.05, 0.05], "width": 2.0})
    assert main(["solve", "--config", str(path)]) == 0


INF, NAN = float("inf"), float("nan")
UNKNOWN_KEY_CASES = [
    ("solve", {"integrater": "split_step"}, "config.integrater"),
    ("solve", {"grid": {"point": 64, "period": 32.0}}, "grid.point"),
    ("solve", {"datum": {"kind": "gaussian", "amplitude": 0.08,
                         "widht": 2.0}}, "datum.widht"),
    ("dependence", {"family": {"initial_scale": 0.01, "deph": 4}},
     "family.deph"),
    ("dependence", {"family": {"initial_scale": 0.01, "depth": 4},
                    "direction": {"centre": 3.0}}, "direction.centre"),
    ("solve", {"problem": dict(PROBLEM, growth_const=5.0)},
     "problem.growth_const"),
    ("solve", {"problem": dict(PROBLEM, growth_coeff=0.0)},
     "problem.growth_coeff"),
    # the slice count and the thread count are each set one way only
    ("solve", {"threads": 1.5}, "config.threads"),
    ("solve", {"time": {"horizon": 0.25, "dt": "0.01"}}, "time.dt"),
    ("solve", {"time": {"horizon": 0.25, "slices": 16, "dt": INF}},
     "time.dt"),
]


@pytest.mark.parametrize("command, overrides, name", UNKNOWN_KEY_CASES,
                         ids=[case[2] for case in UNKNOWN_KEY_CASES])
def test_config_rejects_unknown_key(tmp_path, capsys, command, overrides,
                                    name):
    path, _ = _write_config(tmp_path, **overrides)
    assert main([command, "--config", str(path)]) == 2
    assert f"unknown key {name}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_keys_checked_per_field_kind(tmp_path):
    # plane_wave takes no width, random takes no amplitude
    for datum in ({"kind": "plane_wave", "mode": 2, "width": 1.0},
                  {"kind": "random", "band": 4, "amplitude": 1.0}):
        path, _ = _write_config(tmp_path, seed=3, datum=datum)
        with pytest.raises(ConfigError, match="unknown key datum."):
            RunConfig.load(str(path), None, None)


def test_config_block_must_be_object(tmp_path, capsys):
    path, _ = _write_config(tmp_path, time=[0.25, 16])
    assert main(["solve", "--config", str(path)]) == 2
    assert "time must be a JSON object" in capsys.readouterr().err


BAD_TYPE_CASES = [
    ("remainder", "remainder.static", "no"),
    ("remainder", "remainder.static", 1),
    ("remainder", "remainder.theta_nodes", 2.7),
    ("remainder", "remainder.theta_nodes", True),
    ("remainder", "remainder.theta_nodes", 1),
    ("remainder", "remainder.shells", "12"),
    ("remainder", "remainder.shells", 12.0),
    ("dependence", "config.cross_check", "false"),
    ("dependence", "config.cross_check", 0),
    ("solve", "grid.points", 64.9),
    ("solve", "grid.points", "64"),
    ("solve", "grid.points", True),
    ("solve", "grid.period", "32"),
    ("solve", "time.slices", 8.7),
    ("solve", "time.horizon", None),
    ("solve", "problem.dimension", 1.9),
    ("solve", "problem.regularity", "0.4"),
    ("solve", "problem.power", True),
    ("solve", "solver.max_iter", 40.9),
    ("solve", "solver.tol", "1e-10"),
    ("solve", "solver.smallness_delta", False),
    ("solve", "config.seed", 7.5),
    ("dependence", "family.depth", 3.0),
    ("dependence", "family.initial_scale", "0.01"),
    ("dependence", "auto_horizon.slices", 8.5),
    ("dependence", "auto_horizon.start", "0.5"),
    ("dependence", "config.cross_tol", "1e-4"),
    ("solve", "config.output_dir", 5),
    # json reads Infinity and NaN, and neither is a number
    ("solve", "grid.period", INF),
    ("solve", "time.horizon", INF),
    ("solve", "time.horizon", NAN),
    ("solve", "problem.power", INF),
    ("solve", "problem.regularity", NAN),
    ("solve", "solver.tol", -INF),
    ("dependence", "family.initial_scale", INF),
    ("dependence", "config.cross_tol", INF),
    # solve's keys are checked by every command, like every key present
    ("dependence", "config.integrator", "leapfrog"),
    ("remainder", "config.integrator", "leapfrog"),
    ("dependence", "config.snapshots", "all"),
    ("remainder", "config.snapshots", "all"),
]


@pytest.mark.parametrize("command, name, value", BAD_TYPE_CASES,
                         ids=[f"{name}={value!r}"
                              for _, name, value in BAD_TYPE_CASES])
def test_config_rejects_mistyped_flag_or_count(tmp_path, capsys, command,
                                               name, value):
    overrides = {"family": {"initial_scale": 0.01, "depth": 3}}
    block, key = name.split(".")
    overrides.update({key: value} if block == "config"
                     else {block: {key: value}})
    path, _ = _write_config(tmp_path, **overrides)
    assert main([command, "--config", str(path)]) == 2
    assert f"config error: {name} must be" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


FIELD_NUMBER_CASES = [
    ("solve", "datum.band", {"datum": {"kind": "random", "band": 4.9}}),
    ("solve", "datum.band", {"datum": {"kind": "random", "band": True}}),
    ("solve", "datum.band", {"datum": {"kind": "random", "band": -1}}),
    ("dependence", "direction.band", {"direction": {"kind": "random",
                                                    "band": -1}}),
    ("solve", "problem.coupling", {"problem": dict(PROBLEM, coupling=True)}),
    ("solve", "problem.coupling",
     {"problem": dict(PROBLEM, coupling=[1.0, False])}),
    ("solve", "datum.width", {"datum": {"kind": "gaussian", "width": True}}),
    ("solve", "datum.center", {"datum": {"kind": "gaussian",
                                         "center": False}}),
    ("solve", "datum.center", {"datum": {"kind": "gaussian",
                                         "center": [0.0, 1.0]}}),
    ("solve", "datum.amplitude", {"datum": {"kind": "gaussian",
                                            "amplitude": "0.1"}}),
    ("solve", "datum.mode", {"datum": {"kind": "plane_wave", "mode": 1.5}}),
    ("solve", "datum.mode", {"datum": {"kind": "plane_wave",
                                       "mode": [True]}}),
    ("dependence", "direction.center", {"direction": {"center": [3.0]}}),
    ("dependence", "direction.width", {"direction": {"kind": "default",
                                                     "width": "1.5"}}),
    ("solve", "datum.width", {"datum": {"kind": "gaussian", "width": 0}}),
    ("dependence", "direction.width", {"direction": {"kind": "default",
                                                     "width": 0}}),
    ("solve", "problem.coupling",
     {"problem": dict(PROBLEM, coupling=[1.0, INF])}),
    ("solve", "datum.center", {"datum": {"kind": "gaussian",
                                         "center": NAN}}),
    ("solve", "datum.mode", {"datum": {"kind": "plane_wave",
                                       "mode": 2 ** 63}}),
    ("solve", "datum.mode", {"datum": {"kind": "plane_wave",
                                       "mode": [-2 ** 63 - 1]}}),
    ("dependence", "direction.mode", {"direction": {"kind": "plane_wave",
                                                    "mode": [2 ** 63]}}),
    ("solve", "datum.band", {"datum": {"kind": "random", "band": 10 ** 400}}),
    ("dependence", "direction.band", {"direction": {"kind": "random",
                                                    "band": 10 ** 400}}),
    # a width enters squared, and each count that sizes an array or a
    # loop has a largest value; all are checked before any allocation
    ("solve", "datum.width", {"datum": {"kind": "gaussian", "width": 1e300}}),
    ("solve", "datum.width", {"datum": {"kind": "gaussian",
                                        "width": 1e-300}}),
    ("dependence", "direction.width", {"direction": {"kind": "gaussian",
                                                     "width": 1e300}}),
    ("dependence", "direction.width", {"direction": {"width": 1e300}}),
    ("dependence", "auto_horizon.slices",
     {"auto_horizon": {"start": 0.25, "slices": 2 ** 63}}),
    ("remainder", "remainder.shells", {"remainder": {"shells": 2 ** 63}}),
    ("remainder", "remainder.theta_nodes",
     {"remainder": {"theta_nodes": 2 ** 62}}),
    ("remainder", "remainder.theta_nodes",
     {"remainder": {"theta_nodes": 2 ** 63}}),
    ("dependence", "family.depth",
     {"family": {"initial_scale": 0.01, "depth": 2 ** 63}}),
    ("dependence", "family.depth",
     {"family": {"initial_scale": 0.01, "depth": 1076}}),
    ("solve", "time.slices", {"time": {"horizon": 0.25, "slices": 2 ** 40}}),
    ("solve", "solver.max_iter", {"solver": {"max_iter": 2 ** 63}}),
]


@pytest.mark.parametrize("command, name, overrides", FIELD_NUMBER_CASES,
                         ids=[f"{name}={list(o.values())[0]!r}"
                              for _, name, o in FIELD_NUMBER_CASES])
def test_config_rejects_mistyped_field_number(tmp_path, capsys, command,
                                              name, overrides):
    path, _ = _write_config(tmp_path, seed=3, **{
        "family": {"initial_scale": 0.01, "depth": 3}, **overrides})
    assert main([command, "--config", str(path)]) == 2
    assert f"config error: {name} must be" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("dim", [2, 3])
def test_plane_wave_takes_one_integer_mode_on_every_axis(tmp_path, capsys,
                                                         dim):
    # the documented default mode 1 and any one integer work in every
    # dimension; a list of the wrong length names its key
    problem = dict(PROBLEM, dimension=dim, power=1.0)
    small = dict(grid={"points": 8, "period": 8.0},
                 time={"horizon": 0.01, "slices": 2})
    for datum in ({"kind": "plane_wave"},
                  {"kind": "plane_wave", "mode": 2, "amplitude": 0.05}):
        path, _ = _write_config(tmp_path, problem=problem, datum=datum,
                                **small)
        assert main(["solve", "--config", str(path)]) == 0
    capsys.readouterr()
    for where in ("datum", "direction"):
        out = tmp_path / where
        path, _ = _write_config(
            tmp_path, problem=problem, output_dir=str(out),
            **{where: {"kind": "plane_wave", "mode": [1] * (dim + 1)}},
            **small)
        assert main(["solve", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: {where}.mode must be")
        assert not out.exists()


def test_config_accepts_field_lists(tmp_path):
    for datum in ({"kind": "gaussian", "amplitude": [0.05, 0],
                   "center": [0.5]},
                  {"kind": "plane_wave", "mode": [2], "amplitude": 0.05}):
        path, _ = _write_config(tmp_path, datum=datum)
        assert main(["solve", "--config", str(path)]) == 0


def test_config_accepts_each_largest_count(tmp_path):
    path, _ = _write_config(
        tmp_path, grid={"points": 2 ** 24, "period": 32.0},
        time={"horizon": 0.25, "slices": 2 ** 16},
        family={"initial_scale": 0.01, "depth": 1075},
        auto_horizon={"start": 0.25, "slices": 2 ** 16},
        solver={"max_iter": 2 ** 16},
        remainder={"shells": 2 ** 16, "theta_nodes": 100},
        datum={"kind": "gaussian", "width": 1e150})
    config = RunConfig.load(str(path), None, None).config
    assert config["family"]["depth"] == 1075
    assert TimeGrid(**config["time"]).slices == 2 ** 16


def test_config_accepts_integer_reals(tmp_path):
    path, _ = _write_config(
        tmp_path, problem=dict(PROBLEM, power=2, regularity=0.4),
        grid={"points": 64, "period": 32}, cross_tol=1)
    rc = RunConfig.load(str(path), None, None)
    assert rc.grid.period == 32.0 and rc.params.power == 2.0


def test_benchmark_workload_configs_load(tmp_path):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]
                           / "perfbench"))
    try:
        from workloads import DEFAULT_SEED, WORKLOADS
    finally:
        sys.path.pop(0)
    for workload in WORKLOADS.values():
        path = tmp_path / f"{workload.name}.json"
        path.write_text(json.dumps(workload.config(DEFAULT_SEED)))
        rc = RunConfig.load(str(path), None, workload.threads)
        assert rc.params.dimension == workload.problem["dimension"]


def test_config_hash_ignores_key_order():
    a = {"alpha": 1, "beta": {"x": 2, "y": 3}}
    b = {"beta": {"y": 3, "x": 2}, "alpha": 1}
    assert config_hash(a) == config_hash(b)
    assert len(config_hash(a)) == 12


def test_config_time_needs_step_or_slices(tmp_path, capsys):
    path, _ = _write_config(tmp_path, time={"horizon": 0.25})
    assert main(["solve", "--config", str(path)]) == 2
    assert "missing key time.slices" in capsys.readouterr().err


def test_runconfig_rejects_empty(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("{}")
    with pytest.raises(ConfigError):
        RunConfig.load(str(path), None, None)


FAIL_FAST_CASES = [
    ("solve", {"family": {"depth": 3}}, "missing key family.initial_scale"),
    ("solve", {"auto_horizon": {"start": 0.5}},
     "missing key auto_horizon.slices"),
    ("solve", {"datum": {"width": 2.0}}, "missing key datum.kind"),
    ("solve", {"datum": {"kind": "soliton"}},
     "unknown field kind 'soliton' at datum"),
    ("solve", {"direction": {"kind": "random", "band": 4}},
     "direction.kind random needs a top-level seed"),
    ("solve", {"remainder": {"shells": 1}},
     "remainder.shells must be an integer >= 2, got 1"),
    ("solve", {"grid": {"points": 2 ** 13, "period": 32.0},
               "problem": dict(PROBLEM, dimension=2, regularity=0.6)},
     "points must be a power of two >= 8 with points**dim <= 2**24, "
     "got 8192"),
    # the spacing to the N, |k|^2 and the Nyquist stay normal doubles
    *[("solve", {"grid": {"points": 8, "period": period},
                 "problem": dict(PROBLEM, dimension=dim, power=1.0)},
       f"period must lie in [1e-100, 1e100], got {period}")
      for period in (1e300, 1e-300) for dim in (2, 3)],
    ("dependence", {"family": {"initial_scale": 0.01, "depth": 3},
                    "cross_check": True, "cross_tol": -1},
     "config.cross_tol must be a positive number, got -1"),
    ("dependence", {"family": {"initial_scale": 0.01, "depth": 3},
                    "cross_tol": 0.0},
     "config.cross_tol must be a positive number, got 0.0"),
]


@pytest.mark.parametrize("command, overrides, message", FAIL_FAST_CASES,
                         ids=[case[2] for case in FAIL_FAST_CASES])
def test_config_fails_fast_in_every_block(tmp_path, capsys, command,
                                          overrides, message):
    # every block present is read at load, whether or not the command
    # uses it, and nothing is written
    path, _ = _write_config(tmp_path, **overrides)
    assert main([command, "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


SOLVER_DEFAULTS = {"tol": 1e-10, "max_iter": 40, "smallness_delta": 0.1}
# (command, config omitting every optional key it can, the same config
# with the documented defaults spelled out); output_dir is left to its
# default "." in both
DEFAULT_CASES = {
    "solve-picard": ("solve", {
        "problem": {"dimension": 1, "regularity": 0.4, "power": 2.0},
        "grid": {"points": 64, "period": 32.0},
        "datum": {"kind": "plane_wave"},
        "time": {"horizon": 0.05, "slices": 8},
    }, {
        "problem": dict(PROBLEM, coupling=1.0),
        "grid": {"points": 64, "period": 32.0},
        "datum": {"kind": "plane_wave", "mode": 1, "amplitude": 1.0},
        "time": {"horizon": 0.05, "slices": 8},
        "solver": SOLVER_DEFAULTS, "integrator": "picard", "snapshots": [],
        "output_dir": ".",
    }),
    "solve-split": ("solve", {
        "problem": {"dimension": 2, "regularity": 0.4, "power": 2.0},
        "grid": {"points": 16, "period": 8.0},
        "datum": {"kind": "gaussian"},
        "time": {"horizon": 0.1, "slices": 5},
        "integrator": "split_step", "snapshots": [0, 5],
    }, {
        "problem": {"dimension": 2, "regularity": 0.4, "power": 2.0,
                    "coupling": [1.0, 0.0]},
        "grid": {"points": 16, "period": 8.0},
        "datum": {"kind": "gaussian", "amplitude": [1.0, 0.0],
                  "width": 1.0, "center": 0.0},
        "time": {"horizon": 0.1, "slices": 5},
        "integrator": "split_step", "snapshots": [0, 5],
    }),
    "dependence": ("dependence", {
        "problem": {"dimension": 1, "regularity": 0.4, "power": 2.0},
        "grid": {"points": 64, "period": 32.0},
        "datum": {"kind": "gaussian", "amplitude": 0.08},
        "family": {"initial_scale": 0.01, "depth": 2},
        "time": {"horizon": 0.25, "slices": 16}, "cross_check": True,
    }, {
        "problem": dict(PROBLEM, coupling=1.0),
        "grid": {"points": 64, "period": 32.0},
        "datum": {"kind": "gaussian", "amplitude": 0.08, "width": 1.0,
                  "center": 0.0},
        "direction": {"kind": "default", "center": 3.0, "width": 1.5},
        "family": {"initial_scale": 0.01, "depth": 2},
        "time": {"horizon": 0.25, "slices": 16}, "cross_check": True,
        "cross_tol": 1e-4, "solver": SOLVER_DEFAULTS,
    }),
    # power 1 is odd, so every theta node is used
    "remainder": ("remainder", {
        "problem": {"dimension": 1, "regularity": 0.4, "power": 1.0},
        "grid": {"points": 32, "period": 16.0},
        "datum": {"kind": "gaussian", "amplitude": 0.05, "width": 2.0},
        "family": {"initial_scale": 0.01, "depth": 2},
        "time": {"horizon": 0.1, "slices": 4},
    }, {
        "problem": {"dimension": 1, "regularity": 0.4, "power": 1.0},
        "grid": {"points": 32, "period": 16.0},
        "datum": {"kind": "gaussian", "amplitude": 0.05, "width": 2.0},
        "direction": {"kind": "default"},
        "family": {"initial_scale": 0.01, "depth": 2},
        "time": {"horizon": 0.1, "slices": 4},
        "remainder": {"shells": 16, "theta_nodes": 32, "static": False},
        "solver": SOLVER_DEFAULTS,
    }),
    "remainder-static": ("remainder", {
        "problem": {"dimension": 1, "regularity": 0.4, "power": 1.0},
        "grid": {"points": 32, "period": 16.0},
        "datum": {"kind": "random"}, "seed": 5,
        "direction": {"kind": "plane_wave", "mode": 2},
        "family": {"initial_scale": 0.5, "depth": 2},
        "time": {"horizon": 0.1, "slices": 4},
        "remainder": {"static": True},
    }, {
        "problem": {"dimension": 1, "regularity": 0.4, "power": 1.0},
        "grid": {"points": 32, "period": 16.0},
        "datum": {"kind": "random", "band": 6}, "seed": 5,
        "direction": {"kind": "plane_wave", "mode": 2, "amplitude": 1.0},
        "family": {"initial_scale": 0.5, "depth": 2},
        "time": {"horizon": 0.1, "slices": 4},
        "remainder": {"shells": 16, "theta_nodes": 32, "static": True},
    }),
}


@pytest.mark.parametrize("case", DEFAULT_CASES)
def test_omitted_keys_take_the_documented_defaults(tmp_path, monkeypatch,
                                                   case):
    command, bare, spelled = DEFAULT_CASES[case]
    artifacts, read = [], []
    for name, config in (("bare", bare), ("spelled", spelled)):
        run = tmp_path / name
        run.mkdir()
        (run / "config.json").write_text(json.dumps(config))
        monkeypatch.chdir(run)
        read.append(RunConfig.load("config.json", None, None).config)
        assert main([command, "--config", "config.json"]) == 0
        # byte for byte, but for the config_hash line, which differs
        artifacts.append({path.name: [line for line in path.read_bytes()
                                      .splitlines(keepends=True)
                                      if b"config_hash" not in line]
                          for path in sorted(run.glob("*.*"))
                          if path.name != "config.json"})
    assert read[0] == read[1]
    assert artifacts[0] and artifacts[0] == artifacts[1]
