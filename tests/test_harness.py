import os
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import maskrec
from maskrec import cli, errors, harness, maskgeom, noise, tfcore
from maskrec.harness import (
    PRESET_KEYS,
    PRESETS,
    Scenario,
    build_pipeline,
    load_config,
    run_simulate,
    run_spectrum,
    run_sweep,
    run_trial,
    run_trials,
    run_verify,
    scenario_from_mapping,
    trial_seed,
)

SMALL = Scenario(
    n=32, shape="disc:measure=6", count=6, trials=3, seed=99,
    r_list=(0.2, 0.5, 1.0),
)
SMALL_KEYS = {
    "n": "32", "shape": "disc:measure=6", "K": "6", "trials": "3", "seed": "99",
    "r_list": "0.2,0.5,1.0",
}


def _child_env(**extra):
    """The environment of a child process that imports this checkout's maskrec."""
    src = str(Path(maskrec.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path, **extra}


def _csv_without_wall_time(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "# maskrec-csv v1"
    rows = [line.split(",") for line in lines if not line.startswith("#")]
    columns = rows[0]
    drop = [i for i, c in enumerate(columns) if c == "wall_time"]
    keep = [i for i in range(len(columns)) if i not in drop]
    return [[row[i] for i in keep] for row in rows]


# ------------------------------------------------------------------ scenarios


def test_scenario_validation():
    with pytest.raises(errors.ConfigurationError):
        Scenario(n=8)
    with pytest.raises(errors.ConfigurationError):
        Scenario(trials=0)
    with pytest.raises(errors.ConfigurationError):
        Scenario(count=0)
    with pytest.raises(errors.ConfigurationError):
        Scenario(noise_kind="real", count=2)
    with pytest.raises(errors.ConfigurationError):
        Scenario(noise_kind="pink")
    with pytest.raises(errors.ConfigurationError):
        Scenario(r_list=(0.5, 0.2))
    # integer fields take integers only: a float K used to fail late, inside sample_noise
    for bad in ({"sigma": float("nan")}, {"sigma": float("inf")}, {"seed": -1},
                {"r_list": (0.2, float("nan"))}, {"r_list": (0.2, float("inf"))},
                {"r_list": (-1.0, 2.0)}, {"r_list": (-0.0, 2.0)},
                {"n": 32.0}, {"count": 4.5}, {"trials": 2.5}, {"seed": 7.5}):
        with pytest.raises(errors.ConfigurationError):
            Scenario(**bad)


def test_scenario_stores_numpy_integers_as_ints():
    sc = Scenario(n=np.int64(32), count=np.int32(4), trials=np.uint8(2), seed=np.int64(5))
    assert sc == Scenario(n=32, count=4, trials=2, seed=5)
    assert all(type(v) is int for v in (sc.n, sc.count, sc.trials, sc.seed))


def test_scenario_rejects_radii_that_share_a_csv_column():
    # success_r_<radius> is formatted with 'g' (6 significant digits)
    for r_list in ((0.5, 0.5), (0.1234561, 0.1234562), (0.2, 1e-7 + 0.2)):
        with pytest.raises(errors.ConfigurationError, match="twice"):
            Scenario(r_list=r_list)
    assert Scenario(r_list=(0.123456, 0.123457)).r_list == (0.123456, 0.123457)


def test_default_r_list_scales_with_cell_side():
    sc = Scenario(n=256)
    assert sc.r_list == tuple(c / 16.0 for c in (2.0, 3.0, 4.0))


def test_default_radii_are_floats_that_parse_back_from_their_repr():
    # they were numpy floats, whose repr (np.float64(...)) a radii list cannot parse
    sc = Scenario(n=32)
    assert all(type(r) is float for r in sc.r_list)
    text = ",".join(map(repr, sc.r_list))
    assert scenario_from_mapping({"n": "32", "r_list": text}) == sc


def test_default_radii_follow_an_overridden_n():
    left = PRESET_KEYS["figure1-left"]
    sc = scenario_from_mapping({**left, "n": "32"})
    assert sc.r_list == Scenario(n=32).r_list != PRESETS["figure1-left"].r_list
    explicit = scenario_from_mapping({**left, "n": "32", "r_list": "0.1,0.2"})
    assert explicit.r_list == (0.1, 0.2)
    assert scenario_from_mapping(SMALL_KEYS) == SMALL
    # radii the mapping sets itself are kept
    assert scenario_from_mapping({**SMALL_KEYS, "n": "64"}).r_list == SMALL.r_list
    assert scenario_from_mapping({**left, "trials": "2"}).r_list == PRESETS["figure1-left"].r_list


def test_default_disc_follows_an_overridden_n():
    assert scenario_from_mapping({"n": "256"}).shape == "disc:measure=100"
    for keys in PRESET_KEYS.values():
        sc = scenario_from_mapping({**keys, "n": "32"})
        assert sc.shape == "disc:measure=12.5"
        # the same share of the plane: 100 of 256
        assert sc.shape == harness.default_shape(32)
    # an explicit shape wins
    assert scenario_from_mapping({"n": "32", "shape": "disc:measure=3"}).shape == "disc:measure=3"
    assert scenario_from_mapping({**SMALL_KEYS, "n": "64"}).shape == SMALL.shape


def test_a_preset_under_an_n_flag_keeps_its_window_and_gets_that_n_defaults(monkeypatch):
    seen = []
    monkeypatch.setattr(
        harness, "run_spectrum", lambda scenario, out_dir: seen.append(scenario) or out_dir
    )
    assert cli.main(["spectrum", "--scenario-preset", "figure1-right", "--n", "32"]) == 0
    assert seen == [Scenario(n=32, model_window="gaussian_t2")]
    assert seen[0].shape == "disc:measure=12.5"
    assert seen[0].r_list == Scenario(n=32).r_list


def test_a_directly_built_scenario_gets_the_disc_of_its_n():
    assert Scenario().shape == "disc:measure=100"
    pipeline = build_pipeline(Scenario(n=32))
    assert pipeline.scenario.shape == "disc:measure=12.5"
    assert np.count_nonzero(pipeline.truth.cells) / 32 == pytest.approx(12.5, abs=0.5)
    assert Scenario(n=32, shape="disc:measure=3").shape == "disc:measure=3"


def test_the_default_disc_has_its_exact_cell_count_at_every_n():
    # the spec keeps every digit of 100 n / 256: at n=258 a 6-digit measure
    # (100.781) gave 26001 cells instead of 26002
    for n in range(16, 513):
        cells = maskgeom.make_mask(tfcore.TFGrid(n), Scenario(n=n).shape).cells
        assert np.count_nonzero(cells) == round(100 * n / 256 * n), n


def test_presets_cover_both_figure_columns():
    left = PRESETS["figure1-left"]
    right = PRESETS["figure1-right"]
    assert PRESETS.keys() == PRESET_KEYS.keys()
    assert left == Scenario()
    assert right == Scenario(model_window="gaussian_t2")
    assert left.n == right.n == 256
    assert left.shape == "disc:measure=100"
    assert left.count == 20 and right.count == 20
    assert left.model_window == "gaussian"
    assert right.model_window == "gaussian_t2"
    assert left.recon_window == right.recon_window == "gaussian"


def test_config_round_trip(tmp_path):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(
        "# demo scenario\n"
        "n = 32\n"
        "shape = disc:measure=6\n"
        "K = 6\n"
        "sigma = 2.0\n"
        "trials = 2\n"
        "seed = 5\n"
        "r_list = 0.25,0.5\n"
    )
    sc = scenario_from_mapping(load_config(cfg))
    assert sc.n == 32 and sc.count == 6 and sc.sigma == 2.0
    assert sc.r_list == (0.25, 0.5)
    override = scenario_from_mapping({**load_config(cfg), "trials": "7"})
    assert override.trials == 7 and override.n == 32


def test_config_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("n 32\n")
    with pytest.raises(errors.ConfigurationError):
        load_config(bad)
    with pytest.raises(errors.ConfigurationError):
        scenario_from_mapping({"mystery": "1"})
    with pytest.raises(errors.ConfigurationError):
        scenario_from_mapping({"n": "many"})


@pytest.mark.parametrize("key", ["shape", "r_list"])
def test_a_config_value_equal_to_its_default_survives_an_n_flag(key, tmp_path):
    # --n re-derives a default the file left out, not one the file wrote
    written = Scenario(n=32)
    value = {"shape": written.shape, "r_list": ",".join(map(str, written.r_list))}[key]
    cfg = tmp_path / "a.cfg"
    cfg.write_text(f"n = 32\n{key} = {value}\n")
    args = cli.build_parser().parse_args(["simulate", "--config", str(cfg), "--n", "64"])
    scenario = cli._scenario_from_args(args)
    assert scenario.n == 64
    assert getattr(scenario, key) == getattr(written, key) != getattr(Scenario(n=64), key)
    # the library takes the same merged mapping
    merged = scenario_from_mapping({**load_config(cfg), "n": "64"})
    assert getattr(merged, key) == getattr(written, key)


# ------------------------------------------------------------------ trials


def test_pipeline_shares_a_window_between_equal_labels():
    left = build_pipeline(replace(PRESETS["figure1-left"], n=32, shape="disc:measure=6"))
    right = build_pipeline(replace(PRESETS["figure1-right"], n=32, shape="disc:measure=6"))
    assert left.recon is left.model
    assert right.recon is not right.model
    for window, label in ((right.model, "gaussian_t2"), (right.recon, "gaussian")):
        assert np.array_equal(window.samples, tfcore.make_window(right.grid, label).samples)


def test_trial_seed_depends_only_on_indices():
    assert trial_seed(7, 3) == trial_seed(7, 3)
    assert trial_seed(7, 3) != trial_seed(7, 4)
    assert trial_seed(8, 3) != trial_seed(7, 3)


def test_trial_is_deterministic():
    pipeline = build_pipeline(SMALL)
    a, _ = run_trial(pipeline, 1)
    b, _ = run_trial(pipeline, 1)
    assert a.seed == b.seed
    assert a.error == b.error
    assert a.success_at_r == b.success_at_r
    assert a.max_rho == b.max_rho


def test_simulate_outputs_are_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_simulate(SMALL, out1)
    run_simulate(SMALL, out2)
    assert _csv_without_wall_time(out1 / "trials.csv") == _csv_without_wall_time(
        out2 / "trials.csv"
    )
    for name in ("truth.pgm", "estimate.pgm", "symdiff.pgm", "rho.pgm"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_parallel_matches_serial(tmp_path):
    out1, out2 = tmp_path / "serial", tmp_path / "pool"
    run_simulate(SMALL, out1, threads=1)
    run_simulate(SMALL, out2, threads=4)
    assert _csv_without_wall_time(out1 / "trials.csv") == _csv_without_wall_time(
        out2 / "trials.csv"
    )


@pytest.mark.parametrize(
    "axis, values, kind",
    [("K", "4,5,8", "complex"), ("K", "4,5,8", "real"), ("measure", "4,8", "complex")],
)
def test_sweep_summary_is_the_same_on_one_and_two_threads(axis, values, kind, tmp_path):
    argv = ["sweep", "--axis", axis, "--values", values, "--n", "32", "--trials", "4",
            "--noise-kind", kind]
    for threads in ("1", "2"):
        out = tmp_path / threads
        assert cli.main([*argv, "--threads", threads, "--out-dir", str(out)]) == 0
    summary = (tmp_path / "1" / "summary.csv").read_bytes()
    assert summary == (tmp_path / "2" / "summary.csv").read_bytes()
    rows = [line for line in summary.splitlines() if not line.startswith(b"#")]
    assert len(rows) == 1 + len(values.split(","))


def test_figure1_left_is_the_same_on_one_and_two_blas_threads(tmp_path):
    # OpenBLAS reads its thread count when numpy loads it, so each count
    # runs in a process of its own
    argv = [sys.executable, "-m", "maskrec.cli", "simulate", "--scenario-preset", "figure1-left"]
    outputs = []
    for blas in ("1", "2"):
        out = tmp_path / blas
        done = subprocess.run(
            [*argv, "--out-dir", str(out)],
            env=_child_env(OPENBLAS_NUM_THREADS=blas),
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        pgms = [(out / name).read_bytes() for name in ("estimate.pgm", "rho.pgm")]
        outputs.append([_csv_without_wall_time(out / "trials.csv"), *pgms])
    assert outputs[0] == outputs[1]


def test_a_failed_simulate_removes_only_the_files_it_wrote(tmp_path):
    run_simulate(SMALL, tmp_path)
    older = (tmp_path / "rho.meta.txt").read_bytes()
    (tmp_path / "rho.pgm").unlink()
    (tmp_path / "rho.pgm").mkdir()
    with pytest.raises(errors.ConfigurationError) as failed:
        run_simulate(SMALL, tmp_path)
    assert str(failed.value).startswith(f"cannot write {str(tmp_path / 'rho.pgm')!r}")
    # the four files written before rho.pgm are gone; the older run's sidecar stays
    assert sorted(p.name for p in tmp_path.iterdir()) == ["rho.meta.txt", "rho.pgm"]
    assert (tmp_path / "rho.meta.txt").read_bytes() == older


def test_simulate_artifacts(tmp_path):
    run_simulate(SMALL, tmp_path)
    meta = (tmp_path / "rho.meta.txt").read_text()
    assert "max_rho" in meta
    max_rho = float(meta.split("max_rho =")[1].strip())
    assert max_rho > 0
    header = (tmp_path / "trials.csv").read_text().splitlines()
    assert header[0] == "# maskrec-csv v1"
    assert "success_r_0.2" in header[1]
    assert len(header) == 2 + SMALL.trials


def test_real_noise_with_odd_k_drops_the_unpaired_realization(tmp_path):
    # complexify pairs floor(K/2) realizations, so K = 5 runs as K = 4
    odd = Scenario(n=32, count=5, trials=3, noise_kind="real")
    run_simulate(odd, tmp_path / "k5")
    run_simulate(replace(odd, count=4), tmp_path / "k4")
    rows = _csv_without_wall_time(tmp_path / "k5" / "trials.csv")
    assert len(rows) == 1 + odd.trials
    assert rows == _csv_without_wall_time(tmp_path / "k4" / "trials.csv")
    for name in ("estimate.pgm", "rho.pgm", "rho.meta.txt"):
        assert (tmp_path / "k5" / name).read_bytes() == (tmp_path / "k4" / name).read_bytes()


def test_threads_env_is_ignored(monkeypatch):
    # --threads / threads= is the only source of the worker count
    monkeypatch.setenv("MASKREC_THREADS", "3")
    assert cli.build_parser().parse_args(["simulate", "--n", "16"]).threads == 1
    with pytest.raises(errors.ConfigurationError, match="thread count"):
        harness.run_trials(build_pipeline(SMALL), threads=0)


def test_thread_pool_is_capped_at_the_trial_count(monkeypatch):
    # and at the usable CPUs; the recording pool starts no thread
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(harness, "ThreadPoolExecutor", RecordingPool)
    pipeline = build_pipeline(SMALL)
    workers = min(SMALL.trials, harness._usable_cpus())
    results, _ = harness.run_trials(pipeline, threads=64)
    assert sizes == ([workers] if workers > 1 else [])
    assert [r.trial_index for r in results] == list(range(SMALL.trials))
    harness.run_trials(pipeline)
    assert sizes == ([workers] if workers > 1 else [])
    # two CPUs cap three trials at two workers; without an affinity call the
    # CPU count is the cap
    assert SMALL.trials == 3
    sizes.clear()
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    harness.run_trials(pipeline, threads=64)
    monkeypatch.delattr(harness.os, "sched_getaffinity")
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    harness.run_trials(pipeline, threads=64)
    assert sizes == [2, 2]


def test_fmt_keeps_the_sign_of_infinity():
    assert harness._fmt(float("-inf")) == "-inf"
    assert harness._fmt(float("inf")) == "inf"


# ------------------------------------------------------------------ sweeps


@pytest.mark.parametrize(
    "axis,values,builds",
    [("K", [2, 4, 8], 1), ("measure", [4.0, 6.0], 2)],
)
def test_sweep_builds_one_pipeline_per_scenario_layout(axis, values, builds, tmp_path, monkeypatch):
    # K leaves truth, windows and H alone; a measure value changes the truth
    calls = []

    def counting(scenario):
        calls.append(scenario)
        return build_pipeline(scenario)

    monkeypatch.setattr(harness, "build_pipeline", counting)
    rows = run_sweep(SMALL, axis, values, tmp_path)
    assert len(calls) == builds
    assert [row["value"] for row in rows] == values


def _sweep_pipeline(axis, value, scenario=SMALL):
    if axis == "K":
        return build_pipeline(replace(scenario, count=value))
    shape = maskgeom.scaled_shape_spec(scenario.shape, value)
    return build_pipeline(replace(scenario, shape=shape))


def test_sweep_k_rows_match_separate_pipelines(tmp_path):
    # every value of a sweep, on either axis and noise kind, gives each trial
    # the result a fresh run of that value's scenario gives it
    real = replace(SMALL, noise_kind="real")
    for scenario, axis, values in (
        (SMALL, "K", [2, 4, 8]), (real, "K", [4, 5, 8]), (SMALL, "measure", [4.0, 6.0]),
        (real, "measure", [4.0, 6.0]),
    ):
        for threads in (1, 2):
            rows = run_sweep(scenario, axis, values, tmp_path, threads=threads)
            assert len(rows) == len(values)
            for value, row in zip(values, rows):
                results, _ = run_trials(_sweep_pipeline(axis, value, scenario))
                assert [replace(r, wall_time=0.0) for r in row["results"]] == [
                    replace(r, wall_time=0.0) for r in results
                ]
                sym = [r.error.sym_diff_measure for r in results]
                assert row["trials"] == len(row["results"]) == len(results)
                assert row["mean_sym_diff"] == np.mean(sym)
                assert row["median_sym_diff"] == np.median(sym)
                assert row["mean_ratio"] == np.mean([r.error.ratio for r in results])
                assert row["success_rates"] == tuple(
                    np.mean([r.success_at_r for r in results], axis=0)
                )


@pytest.mark.parametrize("run", ["K-sweep", "measure-sweep", "simulate"])
def test_each_trial_draws_its_noise_once(run, tmp_path, monkeypatch):
    # realization k of a trial is keyed (seed, k), so a K sweep over 2, 4, 8
    # draws each trial's 8 realizations once (in one call), and a measure
    # sweep its K once; a sweep draws on the thread that called it, not in
    # the pool
    calls, drawn = {
        "K-sweep": (SMALL.trials, 8 * SMALL.trials),
        "measure-sweep": (SMALL.trials, SMALL.count * SMALL.trials),
        "simulate": (SMALL.trials, SMALL.count * SMALL.trials),
    }[run]
    counts, threads = [], set()
    sample_noise = noise.sample_noise

    def counting(*args, **kwargs):
        batch = sample_noise(*args, **kwargs)
        counts.append(batch.count)
        threads.add(threading.get_ident())
        return batch

    monkeypatch.setattr(noise, "sample_noise", counting)
    if run == "K-sweep":
        run_sweep(SMALL, "K", [2, 4, 8], tmp_path, threads=2)
    elif run == "measure-sweep":
        run_sweep(SMALL, "measure", [4.0, 6.0, 8.0], tmp_path, threads=2)
    else:
        run_simulate(SMALL, tmp_path, threads=2)
    assert (len(counts), sum(counts)) == (calls, drawn)
    if run != "simulate":
        assert threads == {threading.get_ident()}


def test_sweep_requires_sorted_values(tmp_path):
    with pytest.raises(errors.ConfigurationError):
        run_sweep(SMALL, "K", [8, 4], tmp_path)


@pytest.mark.parametrize("axis, values", [("K", [4, 4]), ("measure", [2.0, 4.0, 4.0])])
def test_sweep_rejects_a_repeated_value(axis, values, tmp_path):
    # a repeated value wrote duplicate rows, and a K sweep fitted its decay
    # through a single K
    with pytest.raises(errors.ConfigurationError, match="strictly ascending"):
        run_sweep(SMALL, axis, values, tmp_path)
    assert not (tmp_path / "summary.csv").exists()


def test_sweep_rejects_a_non_integer_k(tmp_path):
    # K values 4.2 and 4.7 once both ran K=4 and wrote two identical rows
    with pytest.raises(errors.ConfigurationError, match="count must be an integer"):
        run_sweep(SMALL, "K", [4.2, 4.7], tmp_path)
    assert not (tmp_path / "summary.csv").exists()


def test_sweep_unknown_axis(tmp_path):
    with pytest.raises(errors.ConfigurationError):
        run_sweep(SMALL, "temperature", [1], tmp_path)


def test_sweep_measure_requires_disc_like_shape(tmp_path):
    sc = Scenario(n=32, shape="rect:x0=0,f0=0,w=4,h=4", count=4, trials=1, seed=1)
    with pytest.raises(errors.ConfigurationError):
        run_sweep(sc, "measure", [2.0, 4.0], tmp_path)


def test_sweep_k_writes_decay_diagnostic(tmp_path):
    run_sweep(SMALL, "K", [2, 4], tmp_path)
    text = (tmp_path / "summary.csv").read_text()
    assert "failure_rate_exp_decay_per_K" in text
    assert text.startswith("# maskrec-csv v1")


# ------------------------------------------------------------------ spectrum


def test_spectrum_full_mask(tmp_path):
    sc = Scenario(n=16, shape="full", count=1, trials=1, seed=1)
    path = run_spectrum(sc, tmp_path)
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    header, data = rows[0], rows[1:]
    assert len(data) == 16
    eig = [float(r[header.index("eigenvalue")]) for r in data]
    assert all(abs(v - 1.0) < 1e-10 for v in eig)
    assert float(data[0][header.index("largeness_rhs")]) == 2.0
    assert data[0][header.index("largeness_pass")] == "1"
    assert data[0][header.index("plateau_violations")] == "0"


def test_spectrum_at_n_512_writes_512_finite_rows(tmp_path):
    assert cli.main(["spectrum", "--n", "512", "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "# maskrec-csv v1"
    cells = np.array([line.split(",") for line in lines[2:]], dtype=float)
    assert cells.shape[0] == 512
    assert np.isfinite(cells).all()


def test_spectrum_trace_column_matches_measure(tmp_path):
    sc = Scenario(n=32, shape="disc:measure=6", count=1, trials=1, seed=1)
    path = run_spectrum(sc, tmp_path)
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    header, data = rows[0], rows[1:]
    eig_sum = sum(float(r[header.index("eigenvalue")]) for r in data)
    assert eig_sum == pytest.approx(float(data[0][header.index("measure")]), abs=1e-9)


# ------------------------------------------------------------------ verify


def test_verify_passes_on_small_sizes():
    checks = run_verify(ns=(8, 16), seed=5)
    failed = [c.name for c in checks if not c.passed]
    assert failed == []


# the per-size rows of verify, in order; tfcore.reproducing runs at n <= 32 only
_VERIFY_ROWS = (
    "tfcore.isometry", "tfcore.covariance", "tfcore.adjoint", "tfcore.reproducing",
    "locop.trace", "locop.eigenvector_gram", "locop.eigenvalue_sum",
    "locop.monotonicity", "locop.double_orth", "locop.first_moment",
    "locop.theta_bounds", "locop.theta_l1_bound", "locop.far_field",
    "locop.regularization", "locop.regularization_t2", "noise.parseval",
    "noise.eigen_expansion", "noise.sigma_scaling", "estimator.sigma_invariance",
    "maskgeom.geometry",
)


def test_verify_check_names_in_order():
    small = [c.name for c in run_verify(ns=(8, 16))]
    assert small == [
        f"{name}[n={n}]" for n in (8, 16) for name in _VERIFY_ROWS
    ] + ["locop.empty_mask"]
    # `maskrec verify --sizes 8,16,32,64`, at run_verify's default seed
    checks = run_verify(ns=(8, 16, 32, 64))
    assert [c.name for c in checks] == [
        f"{name}[n={n}]"
        for n in (8, 16, 32, 64)
        for name in _VERIFY_ROWS
        if n <= 32 or name != "tfcore.reproducing"
    ] + ["locop.empty_mask", "locop.plateau[full-64]", "locop.plateau[holey-plane-64]"]
    assert [c.line() for c in checks if not c.passed] == []


def test_verify_corrupted_window_fails_isometry(monkeypatch):
    # transforms scaled by 1 + 1e-4, as a window off unit norm would give
    stft = tfcore.stft
    monkeypatch.setattr(tfcore, "stft", lambda f, g: stft(f, g) * (1.0 + 1e-4))
    checks = run_verify(ns=(8,), seed=5)
    failing = {c.name for c in checks if not c.passed}
    assert any(name.startswith("tfcore.isometry") for name in failing)


# the child blocks scipy before the first import of maskrec, so any scipy
# import on the simulate or verify path fails there
_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
from maskrec import harness

results = harness.run_simulate(harness.Scenario(n=32, count=6, trials=2), sys.argv[1])
checks = harness.run_verify(ns=(8,))
assert len(results) == 2, results
assert checks and all(c.passed for c in checks), [c.line() for c in checks]
loaded = [m for m, mod in sys.modules.items() if m.split(".")[0] == "scipy" and mod]
assert not loaded, loaded
print("ran without scipy")
"""


def test_simulate_and_verify_run_without_scipy(tmp_path):
    done = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY, str(tmp_path)],
        env=_child_env(),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ran without scipy"
    assert (tmp_path / "trials.csv").exists()


def test_verify_rejects_out_of_range_sizes():
    with pytest.raises(errors.ConfigurationError):
        run_verify(ns=(4,))
    with pytest.raises(errors.ConfigurationError):
        run_verify(ns=(128,))


def test_verify_rejects_an_empty_size_list():
    # the empty-mask check runs on the first size, so there must be one
    with pytest.raises(errors.ConfigurationError, match="at least one size"):
        run_verify(ns=())


# ------------------------------------------------------------------ CLI


def test_cli_simulate_and_artifacts(tmp_path, capsys):
    code = cli.main(
        [
            "simulate", "--n", "32", "--shape", "disc:measure=6", "--K", "6",
            "--trials", "2", "--seed", "11", "--out-dir", str(tmp_path),
        ]
    )
    assert code == 0
    assert (tmp_path / "trials.csv").exists()
    assert (tmp_path / "rho.meta.txt").exists()


def test_cli_preset_with_overrides(tmp_path):
    code = cli.main(
        [
            "simulate", "--scenario-preset", "figure1-left", "--n", "32",
            "--shape", "disc:measure=6", "--K", "4", "--trials", "1",
            "--out-dir", str(tmp_path),
        ]
    )
    assert code == 0


def test_cli_non_finite_samples_exit_3_without_a_csv(tmp_path, monkeypatch, capsys):
    real = noise.filter_batch

    def poisoned(batch, H):
        out = real(batch, H)
        out[0, 0] = np.nan
        return out

    monkeypatch.setattr(noise, "filter_batch", poisoned)
    code = cli.main(
        ["simulate", "--n", "32", "--K", "4", "--trials", "1", "--out-dir", str(tmp_path)]
    )
    assert code == 3
    assert "not finite" in capsys.readouterr().err
    assert not (tmp_path / "trials.csv").exists()


def test_cli_requires_a_scenario():
    assert cli.main(["simulate"]) == 2


def test_cli_config_error_exit_code(tmp_path):
    assert (
        cli.main(
            ["simulate", "--n", "8", "--shape", "full", "--out-dir", str(tmp_path)]
        )
        == 2
    )


def test_cli_spectrum(tmp_path):
    code = cli.main(
        [
            "spectrum", "--n", "16", "--shape", "full", "--K", "1",
            "--trials", "1", "--out-dir", str(tmp_path),
        ]
    )
    assert code == 0


def test_cli_verify_exit_zero(capsys):
    assert cli.main(["verify", "--sizes", "8"]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out
    assert "PASS tfcore.isometry[n=8]" in out
