import os
import re
import runpy
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import maskrec
from maskrec import cli, errors, estimator, harness, locop, maskgeom, noise, tfcore, verify
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
    scenario_from_mapping,
    trial_seed,
)
from maskrec.verify import run_verify

from helpers import brute_trial

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
        Scenario(noise_kind="pink")
    # real noise takes any K >= 1, as complex noise does
    results, _ = run_trials(build_pipeline(Scenario(n=16, noise_kind="real", count=2, trials=1)))
    assert len(results) == 1
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


def test_a_config_file_may_start_with_a_byte_order_mark(tmp_path):
    # the mark once became part of the first key: unknown scenario key '\ufeffn'
    text = "n = 16\nK = 4\ntrials = 2\n"
    plain, marked = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
    plain.write_bytes(text.encode())
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert load_config(marked) == load_config(plain) == {"n": "16", "K": "4", "trials": "2"}


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
    # trial 0's kept fields come from whichever worker ran trial 0, for
    # complex and real noise alike
    complex_K20 = Scenario(n=32, trials=6)
    real_K5 = Scenario(n=32, trials=6, noise_kind="real", count=5)
    for i, (scenario, threads) in enumerate(((SMALL, 4), (complex_K20, 2), (real_K5, 2))):
        out1, out2 = tmp_path / f"serial{i}", tmp_path / f"pool{i}"
        run_simulate(scenario, out1, threads=1)
        run_simulate(scenario, out2, threads=threads)
        assert _csv_without_wall_time(out1 / "trials.csv") == _csv_without_wall_time(
            out2 / "trials.csv"
        )
        for name in ("truth.pgm", "estimate.pgm", "symdiff.pgm", "rho.pgm", "rho.meta.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@pytest.mark.parametrize(
    "axis, values, kind",
    # a K sweep draws and filters on the calling thread with 1 worker and on
    # both workers with 2, and K = 1 scores the first of those rows; a
    # measure sweep filters each value's rows on the trial's worker
    [("K", "1,2,4,8", "complex"), ("K", "4,5,8", "complex"), ("K", "4,5,8", "real"),
     ("measure", "4,8", "complex"), ("measure", "4,8", "real")],
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


def test_a_simulate_that_fails_to_encode_leaves_no_directory(tmp_path, monkeypatch):
    # every file is encoded before the directory is made
    def fail(values):
        raise RuntimeError("field encoder failed")

    monkeypatch.setattr(maskgeom, "field_pgm", fail)
    with pytest.raises(RuntimeError, match="field encoder failed"):
        run_simulate(SMALL, tmp_path / "out")
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("K", [1, 2, 5])
def test_real_noise_averages_the_spectrogram_of_every_realization(K):
    # realization k is keyed (seed, k), so a K-row trial holds the K - 1 rows
    # of the smaller trial and one more: K rho_K - (K - 1) rho_{K-1} is the
    # spectrogram of that last filtered row (rho_0 = 0), odd K included.  The
    # defect read at most 6.8e-16 of K max rho over K in 1, 2, 3, 5, 8, 20 and
    # seeds 1, 2, 3, 99; 1e-14 leaves a margin of about 15
    pipeline = build_pipeline(replace(SMALL, noise_kind="real", count=K, trials=1))
    rho = run_trial(pipeline, 0, keep_fields=True)[1]["rho"]
    before = 0.0
    if K > 1:
        fewer = replace(pipeline, scenario=replace(pipeline.scenario, count=K - 1))
        before = (K - 1) * run_trial(fewer, 0, keep_fields=True)[1]["rho"]
    last = harness._draw(pipeline.scenario, trial_seed(SMALL.seed, 0))[-1:]
    spectrogram = estimator.average_spectrogram(
        noise.filter_batch(last, pipeline.H), pipeline.recon
    ).rho
    assert spectrogram.max() > 0.1 * rho.max()
    assert np.max(np.abs(K * rho - before - spectrogram)) <= 1e-14 * K * rho.max()


def test_threads_env_is_ignored(monkeypatch):
    # --threads / threads= is the only source of the worker count
    monkeypatch.setenv("MASKREC_THREADS", "3")
    assert cli.build_parser().parse_args(["simulate", "--n", "16"]).threads == 1
    # a float, None or a string once raised a TypeError from the comparison
    for threads in (0, 2.0, None, "2"):
        with pytest.raises(errors.ConfigurationError, match="thread count"):
            harness.run_trials(build_pipeline(SMALL), threads=threads)


def test_thread_pool_is_capped_at_the_trial_count(monkeypatch):
    # and at the usable CPUs; the calling thread is one of the workers, so
    # w workers start w - 1 threads and one worker starts none
    starts = []

    class CountingThread(threading.Thread):
        def start(self):
            starts.append(self)
            super().start()

    def started(**kwargs):
        starts.clear()
        results, _ = harness.run_trials(pipeline, **kwargs)
        assert [r.trial_index for r in results] == list(range(SMALL.trials))
        return len(starts)

    monkeypatch.setattr(harness.threading, "Thread", CountingThread)
    pipeline = build_pipeline(SMALL)
    workers = min(SMALL.trials, harness._usable_cpus())
    assert started(threads=64) == workers - 1
    assert started() == 0
    # eight CPUs cap nothing, so three trials start two threads; two CPUs
    # cap three trials at two workers; without an affinity call the CPU
    # count is the cap
    assert SMALL.trials == 3
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    assert started(threads=64) == 2
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1})
    counts = [started(threads=64)]
    monkeypatch.delattr(harness.os, "sched_getaffinity")
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    counts.append(started(threads=64))
    assert counts == [1, 1]


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("error", [errors.NumericError, KeyboardInterrupt])
def test_a_failing_trial_stops_the_run_and_raises_the_lowest_index(error, threads, monkeypatch):
    # trials 1 and 2 raise.  On 2 or 3 workers trial 1 waits until trial 2 has
    # raised, yet trial 1's error propagates, as a serial run's would.  On 3,
    # trial 0 also waits and then succeeds: its worker must not start trial 3
    scenario = replace(SMALL, trials=6)
    pipeline = build_pipeline(scenario)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 3)
    before = threading.active_count()
    results, _ = run_trials(pipeline, threads=threads)
    assert len(results) == scenario.trials
    assert threading.active_count() == before

    started, second_raised = [], threading.Event()
    run_trial = harness.run_trial

    def failing(pipeline, t, **kwargs):
        started.append(t)
        if t == 2:
            second_raised.set()
            raise error("trial 2 failed")
        if t == 1:
            if threads >= 2:
                second_raised.wait(timeout=10)
            raise error("trial 1 failed")
        if t == 0 and threads == 3:
            second_raised.wait(timeout=10)
            time.sleep(0.05)  # trial 2's worker records its error meanwhile
        return run_trial(pipeline, t, **kwargs)

    monkeypatch.setattr(harness, "run_trial", failing)
    with pytest.raises(error, match="trial 1 failed"):
        run_trials(pipeline, threads=threads)
    assert threading.active_count() == before
    assert sorted(started) == ([0, 1] if threads == 1 else [0, 1, 2])


def test_fmt_keeps_the_sign_of_infinity():
    assert harness._fmt(float("-inf")) == "-inf"
    assert harness._fmt(float("inf")) == "inf"


# ------------------------------------------------------------------ whole trial


def _oracle_scenarios():
    """40 one-trial scenarios: two seeds of four truths at each n, under
    matched and mismatched windows, complex noise at K = 1 and 7 and real
    noise at K = 5."""
    noises = (("complex", 1), ("complex", 7), ("real", 5))
    windows = (("gaussian", "gaussian"), ("gaussian_t2", "gaussian"))
    truths = [
        (n, shape)
        for n in (16, 17, 20, 24, 32)
        for shape in (
            f"disc:measure={0.3 * n:g}", f"annulus:measure={0.3 * n:g},hole={0.1 * n:g}",
            f"not:disc:measure={0.2 * n:g}", f"rect:x0=2,f0=3,w={n // 2},h={n // 3}",
        )
        for _ in range(2)
    ]
    for i, (n, shape) in enumerate(truths):
        (kind, K), (model, recon) = noises[i % 3], windows[i // 3 % 2]
        yield Scenario(n=n, shape=shape, count=K, noise_kind=kind, model_window=model,
                       recon_window=recon, trials=1, seed=100 + i)


def test_a_trial_matches_the_brute_force_trial():
    near_threshold = 0
    for scenario in _oracle_scenarios():
        rho, estimate, radius = brute_trial(scenario, 0)
        result, fields = run_trial(build_pipeline(scenario), 0, keep_fields=True)
        top = rho.max()
        assert abs(result.max_rho - top) <= 1e-13 * top, scenario
        near = np.abs(rho - top / 4) <= 1e-12 * top
        near_threshold += int(np.count_nonzero(near))
        assert np.array_equal(fields["estimate"][~near], estimate[~near]), scenario
        if np.array_equal(fields["estimate"], estimate):
            # the package multiplies sqrt(d^2) by the cell side and the oracle
            # divides it by sqrt(n): the two may round 1 ulp apart
            got = result.error.containment_radius
            assert abs(got - radius) <= 2 * np.spacing(max(got, radius)), scenario
    print(f"{near_threshold} cells within 1e-12 of the threshold in 40 trials")


# at figure1-left (n=256, K=20, 50 trials), the mean sym_diff_measure of real
# noise was 3.8 to 7.2 % away from complex noise's over seeds 3, 5, 7, 11 and
# 13 (4.0 % at seed 7); 15 % leaves a margin of 2.  Real rows paired into
# K/2 complex ones read 13.9 to 16.1 (15.5 at seed 7), near complex K=10's 14.6
_EQUAL_K_GAP = 0.15


def test_real_and_complex_noise_at_equal_k_have_equal_accuracy():
    means = {}
    for kind in ("complex", "real"):
        scenario = replace(PRESETS["figure1-left"], noise_kind=kind)
        results, _ = run_trials(build_pipeline(scenario))
        means[kind] = np.mean([r.error.sym_diff_measure for r in results])
    assert abs(means["real"] - means["complex"]) <= _EQUAL_K_GAP * means["complex"], means


def _check_a_moved_trial(scenario, move, U, move_rows, tol):
    """Trial 0 of ``scenario``, its truth moved by ``move`` and its noise rows
    by ``move_rows`` (the unitary ``U``): H becomes U H U* within ``tol``, rho
    moves with the truth within ``tol`` of max rho, the mask moves but for
    cells within 1e-12 of the threshold, and the ErrorReport is the same."""
    base = build_pipeline(scenario)
    truth = maskgeom.Mask(move(base.truth.cells))
    moved = replace(base, truth=truth, H=locop.assemble_locop(truth, base.model))
    assert np.max(np.abs(moved.H - U @ base.H @ U.conj().T)) <= tol

    drawn = harness._draw(scenario, trial_seed(scenario.seed, 0))
    rows = noise.filter_batch(move_rows(drawn), moved.H)
    result, fields = run_trial(base, 0, keep_fields=True)
    moved_result, moved_fields = run_trial(moved, 0, keep_fields=True, rows=rows)
    top = result.max_rho
    assert np.max(np.abs(moved_fields["rho"] - move(fields["rho"]))) <= tol * top
    off = move(np.abs(fields["rho"] - top / 4) > 1e-12 * top)
    assert np.array_equal(moved_fields["estimate"][off], move(fields["estimate"])[off])
    assert moved_result.error == result.error


# the defects of a whole trial under a time-frequency shift, H's and rho's,
# measured 8.8e-16 to 2.6e-14 on these cases, the largest at n = 256; 1e-13
# leaves a margin of about 4
_SHIFT_TOL = 1e-13


@pytest.mark.parametrize(
    "n, kind, K", [(16, "complex", 6), (17, "real", 5), (64, "complex", 6), (256, "complex", 6)]
)
def test_shifting_the_truth_and_the_noise_shifts_the_trial(n, kind, K):
    scenario = Scenario(n=n, count=K, noise_kind=kind, model_window="gaussian_t2", trials=1,
                        seed=11)
    z = (n // 3, 2 * n // 3 + 1)
    P = tfcore.tf_shift(np.eye(n), z).T  # column s is pi(z) e_s
    _check_a_moved_trial(scenario, lambda a: np.roll(a, z, axis=(0, 1)), P,
                         lambda y: tfcore.tf_shift(y, z), _SHIFT_TOL)


def _centred_dft(a, axis):
    """The centred unitary DFT along ``axis``: it maps the periodized Gaussian
    centred at n/2 to itself."""
    shifted = np.fft.ifftshift(a, axes=axis)
    return np.fft.fftshift(np.fft.fft(shifted, axis=axis, norm="ortho"), axes=axis)


# the defects of a whole trial under the Fourier rotation measured 8.3e-17 and
# 1.4e-16 for H and 3.7e-16 and 3.8e-16 of max rho for rho, at n = 64 and
# 256; 4e-15 leaves a margin of 10
_ROTATION_TOL = 4e-15


@pytest.mark.parametrize("n", [64, 256])
def test_rotating_the_truth_and_the_noise_by_the_fourier_transform_rotates_the_trial(n):
    # with Gaussian windows, the centred DFT of the noise turns each
    # spectrogram a quarter turn; an off-centre rect is far from its own turn
    scenario = Scenario(n=n, shape=f"rect:x0={n // 8},f0={n // 5},w={n // 4},h={n // 8}",
                        count=6, trials=1, seed=11)
    _check_a_moved_trial(scenario, lambda a: np.roll(np.rot90(a, 3), (0, 1), axis=(0, 1)),
                         _centred_dft(np.eye(n), 0), lambda y: _centred_dft(y, -1),
                         _ROTATION_TOL)


# ------------------------------------------------------------------ sweeps


@pytest.mark.parametrize(
    "axis, values, order",
    [("K", [2, 4, 8], [("build", 6), ("trials", 2), ("trials", 4), ("trials", 8)]),
     ("measure", [4.0, 6.0, 8.0], [("build", 4.0), ("trials", 4.0), ("build", 6.0),
                                   ("trials", 6.0), ("build", 8.0), ("trials", 8.0)])],
)
def test_a_sweep_builds_each_pipeline_just_before_its_trials(
    axis, values, order, tmp_path, monkeypatch
):
    # K leaves truth, windows and H alone, so a K sweep builds its shared
    # pipeline once, before its first pool; a measure value changes the
    # truth, and its pipeline, H with it, is built only when its trials run,
    # not every value's before the first pool
    events, build, trials = [], harness.build_pipeline, harness.run_trials
    value_of = {maskgeom.scaled_shape_spec(SMALL.shape, v): v for v in values}

    def label(scenario):
        return scenario.count if axis == "K" else value_of[scenario.shape]

    def recording_build(scenario):
        events.append(("build", label(scenario)))
        return build(scenario)

    def recording_trials(pipeline, *args, **kwargs):
        events.append(("trials", label(pipeline.scenario)))
        return trials(pipeline, *args, **kwargs)

    monkeypatch.setattr(harness, "build_pipeline", recording_build)
    monkeypatch.setattr(harness, "run_trials", recording_trials)
    rows = run_sweep(SMALL, axis, values, tmp_path)
    assert events == order
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


@pytest.mark.parametrize("run", ["K-sweep", "real-K-sweep", "measure-sweep", "simulate"])
def test_each_trial_draws_its_noise_once(run, tmp_path, monkeypatch):
    # realization k of a trial is keyed (seed, k), so a K sweep over 2, 4, 8
    # draws each trial's 8 realizations once (in one call), of real noise as
    # of complex, and a measure sweep its K once.  Every run draws on its 2
    # workers, the caller among them: the first two draws wait for each
    # other, so draws on the caller alone break the barrier
    calls, drawn = {
        "K-sweep": (SMALL.trials, 8 * SMALL.trials),
        "real-K-sweep": (SMALL.trials, 8 * SMALL.trials),
        "measure-sweep": (SMALL.trials, SMALL.count * SMALL.trials),
        "simulate": (SMALL.trials, SMALL.count * SMALL.trials),
    }[run]
    counts, threads, entered = [], set(), []
    sample_noise = noise.sample_noise
    both = threading.Barrier(2, timeout=10)

    def counting(*args, **kwargs):
        entered.append(None)
        if len(entered) <= 2:
            both.wait()
        batch = sample_noise(*args, **kwargs)
        counts.append(batch.count)
        threads.add(threading.get_ident())
        return batch

    monkeypatch.setattr(noise, "sample_noise", counting)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    if run.endswith("K-sweep"):
        kind = "real" if run == "real-K-sweep" else "complex"
        run_sweep(replace(SMALL, noise_kind=kind), "K", [2, 4, 8], tmp_path, threads=2)
    elif run == "measure-sweep":
        run_sweep(SMALL, "measure", [4.0, 6.0, 8.0], tmp_path, threads=2)
    else:
        run_simulate(SMALL, tmp_path, threads=2)
    assert (len(counts), sum(counts)) == (calls, drawn)
    assert len(threads) == 2 and threading.get_ident() in threads


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize(
    "kind, axis, values, rows",
    [("complex", "K", [2, 4, 8], [8]), ("real", "K", [4, 5, 8], [8]),
     ("complex", "measure", [4.0, 6.0], [6, 6])],
)
def test_a_k_sweep_filters_each_trial_once(
    kind, axis, values, rows, threads, tmp_path, monkeypatch
):
    # both axes draw on the sweep's workers, the caller among them: on 2,
    # the first two draws wait for each other.  A K sweep, of real or complex
    # noise, filters each trial's 8 rows once, on the worker that drew them,
    # right after the draw; a measure value has its own H, so a measure sweep
    # filters per (trial, value)
    caller = threading.get_ident()
    filtered, draw_threads, entered = [], set(), []
    together = threading.Barrier(threads, timeout=10)
    events = {}  # thread -> its draws, filter_batch calls and run_trial calls, in order
    filter_batch, sample_noise = noise.filter_batch, noise.sample_noise
    run_trial = harness.run_trial

    def log(*event):
        events.setdefault(threading.get_ident(), []).append(event)

    def counting_filter(rows, H):
        filtered.append(len(rows))
        given = rows.copy()  # a K sweep filters its rows in place
        out = filter_batch(rows, H)
        log("filter", given, out)
        return out

    def counting_draw(*args, **kwargs):
        entered.append(None)
        if len(entered) <= threads:
            together.wait()
        draw_threads.add(threading.get_ident())
        batch = sample_noise(*args, **kwargs)
        log("draw", batch.realizations)
        return batch

    def recording_trial(pipeline, t, **kwargs):
        log("trial", kwargs["rows"])
        return run_trial(pipeline, t, **kwargs)

    monkeypatch.setattr(noise, "filter_batch", counting_filter)
    monkeypatch.setattr(noise, "sample_noise", counting_draw)
    monkeypatch.setattr(harness, "run_trial", recording_trial)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    if threads == 1:

        def no_thread(*args, **kwargs):
            raise AssertionError("one worker started a thread")

        monkeypatch.setattr(harness.threading, "Thread", no_thread)
    run_sweep(replace(SMALL, noise_kind=kind), axis, values, tmp_path, threads=threads)
    assert sorted(filtered) == sorted(rows * SMALL.trials)
    filter_threads = {
        thread for thread, log in events.items() if any(e[0] == "filter" for e in log)
    }
    assert len(draw_threads) == threads and caller in draw_threads
    if threads == 1:
        assert filter_threads == {caller}
    trials = 0
    for log in events.values():
        for i, (event, *arrays) in enumerate(log):
            if axis == "K" and event == "filter":
                # the filtered rows are the ones this thread has just drawn
                assert i > 0 and log[i - 1][0] == "draw"
                assert np.array_equal(log[i - 1][1], arrays[0])
            if axis != "K" and event == "trial":
                # each trial's worker filters its rows just before it scores
                # them: rows filtered before the trials started would be
                # followed by another filter, or scored after another trial,
                # on their thread
                trials += 1
                assert i > 0 and log[i - 1][0] == "filter" and log[i - 1][2] is arrays[0]
    if axis == "K":
        assert filter_threads == draw_threads
    else:
        assert trials == len(values) * SMALL.trials


@pytest.mark.parametrize(
    "threads, axis",
    [pytest.param(1, "K", id="1"), pytest.param(2, "K", id="2"), pytest.param(3, "K", id="3"),
     pytest.param(2, "measure", id="measure-2"), pytest.param(3, "measure", id="measure-3")],
)
@pytest.mark.parametrize("error", [errors.NumericError, KeyboardInterrupt])
def test_a_failing_filter_stops_a_k_sweep_and_raises_the_lowest_index(
    error, threads, axis, tmp_path, monkeypatch
):
    # the filters of trials 1 and 2 raise, or, in a measure sweep, whose
    # draw job filters nothing, their draws.  On 2 or 3 workers trial 1 waits
    # until trial 2 has raised, yet trial 1's error propagates, as a serial
    # run's would.  On 3, trial 0 also waits and then succeeds: its worker
    # must not start trial 3.  Every thread is joined and no summary.csv is
    # written
    scenario = replace(SMALL, trials=6)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 3)
    before = threading.active_count()
    started, current, second_raised = [], threading.local(), threading.Event()
    step = "filter_batch" if axis == "K" else "sample_noise"
    seed_of, original = harness.trial_seed, getattr(noise, step)

    def recording_seed(scenario_seed, t):
        started.append(t)
        current.t = t
        return seed_of(scenario_seed, t)

    def failing(*args, **kwargs):
        if current.t == 2:
            second_raised.set()
            raise error("trial 2 failed")
        if current.t == 1:
            if threads >= 2:
                second_raised.wait(timeout=10)
            raise error("trial 1 failed")
        if current.t == 0 and threads == 3:
            second_raised.wait(timeout=10)
            time.sleep(0.05)  # trial 2's worker records its error meanwhile
        return original(*args, **kwargs)

    monkeypatch.setattr(harness, "trial_seed", recording_seed)
    monkeypatch.setattr(noise, step, failing)
    values = [2, 4] if axis == "K" else [4.0, 6.0]
    with pytest.raises(error, match="trial 1 failed"):
        run_sweep(scenario, axis, values, tmp_path / "out", threads=threads)
    assert threading.active_count() == before
    assert sorted(started) == ([0, 1] if threads == 1 else [0, 1, 2])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "axis, values, shape, threads, message",
    [("K", [4, 8], SMALL.shape, 0, "thread count"),
     ("measure", [4.0, 8.0], SMALL.shape, 0, "thread count"),
     # these once raised a TypeError from the comparison with 1
     ("K", [4, 8], SMALL.shape, 2.0, "thread count must be an integer"),
     ("K", [4, 8], SMALL.shape, None, "thread count must be an integer"),
     ("measure", [4.0, 8.0], SMALL.shape, "2", "thread count must be an integer"),
     ("K", [4, 8], "full", 1, "no boundary"),
     # a later value's truth, the full plane or a disc past it, fails before any draw
     ("measure", [4.0, 32.0], SMALL.shape, 1, "no boundary"),
     ("measure", [4.0, 1000.0], SMALL.shape, 1, r"disc measure 1000\.0 outside \[0, 32\.0\]"),
     ("K", [8, 4], SMALL.shape, 1, "strictly ascending"),
     # a repeated value wrote duplicate rows, and a K sweep fitted its decay
     # through a single K
     ("K", [4, 4], SMALL.shape, 1, "strictly ascending"),
     ("measure", [2.0, 4.0, 4.0], SMALL.shape, 1, "strictly ascending"),
     # K values 4.2 and 4.7 once both ran K=4 and wrote two identical rows
     ("K", [4.2, 4.7], SMALL.shape, 1, "count must be an integer"),
     # an empty list once built the pipeline, drew every trial's noise and
     # wrote a header-only summary.csv
     ("K", [], SMALL.shape, 1, "at least one value"),
     ("measure", [], SMALL.shape, 1, "at least one value"),
     ("temperature", [1], SMALL.shape, 1, "unknown sweep axis 'temperature'"),
     ("measure", [2.0, 4.0], "rect:x0=0,f0=0,w=4,h=4", 1,
      "measure sweeps need a disc or annulus shape")],
)
def test_a_sweep_rejects_bad_threads_and_a_boundaryless_truth_before_drawing(
    axis, values, shape, threads, message, tmp_path, monkeypatch
):
    # it once drew, and for complex noise filtered, every trial before the
    # first run_trials raised
    draws, built, build = [], [], harness.build_pipeline
    monkeypatch.setattr(noise, "sample_noise", lambda *args, **kwargs: draws.append(args))
    monkeypatch.setattr(harness, "build_pipeline", lambda sc: built.append(sc) or build(sc))
    with pytest.raises(errors.ConfigurationError, match=message):
        run_sweep(replace(SMALL, shape=shape), axis, values, tmp_path / "out", threads=threads)
    assert draws == []
    assert not (tmp_path / "out").exists()
    # only a K sweep's shared pipeline is built before the threads and the
    # truth are checked; bad values and a bad axis build nothing
    assert len(built) == (axis == "K" and message.startswith(("thread count", "no boundary")))


@pytest.mark.parametrize(
    "axis, values", [("K", [4, 8]), ("measure", [4.0, 8.0])], ids=["K", "measure"]
)
def test_a_sweep_takes_its_values_as_a_numpy_array(axis, values, tmp_path):
    # `if not values` once raised numpy's ambiguous truth value error
    rows = {}
    for kind, given in (("list", values), ("array", np.array(values))):
        summary = run_sweep(SMALL, axis, given, tmp_path / kind)
        rows[kind] = [{k: v for k, v in row.items() if k != "results"} for row in summary]
    assert rows["array"] == rows["list"]
    assert (tmp_path / "array" / "summary.csv").read_bytes() == (
        tmp_path / "list" / "summary.csv"
    ).read_bytes()


@pytest.mark.parametrize(
    "axis, values", [("K", [2, 8]), ("measure", [4.0, 8.0])], ids=["K", "measure"]
)
def test_a_sweep_keeps_its_rows_under_rapid_thread_switches(axis, values, tmp_path, monkeypatch):
    # 4 workers, the calling thread among them, draw every trial's rows (and
    # in a K sweep filter them in place), then share each value's trials.  A
    # row filtered before its draw landed, or twice, or a draw landing in
    # another trial's slot, would change that trial's results; a trial index
    # taken twice or never would show in the calls
    scenario = replace(SMALL, trials=24)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 4)
    calls, run_trial = [], harness.run_trial

    def counting(pipeline, t, **kwargs):
        sc = pipeline.scenario
        calls.append((sc.count if axis == "K" else sc.shape, t))
        return run_trial(pipeline, t, **kwargs)

    monkeypatch.setattr(harness, "run_trial", counting)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled = run_sweep(scenario, axis, values, tmp_path, threads=4)
    finally:
        sys.setswitchinterval(interval)
    keys = values if axis == "K" else [
        maskgeom.scaled_shape_spec(scenario.shape, value) for value in values
    ]
    assert sorted(calls) == sorted((key, t) for key in keys for t in range(scenario.trials))
    serial = run_sweep(scenario, axis, values, tmp_path, threads=1)
    for got, want in zip(pooled, serial):
        assert [replace(r, wall_time=0.0) for r in got["results"]] == [
            replace(r, wall_time=0.0) for r in want["results"]
        ]


@pytest.mark.parametrize("kind", ["complex", "real"])
@pytest.mark.parametrize("threads", [1, 2])
def test_a_k_sweep_at_k_1_matches_a_fresh_run(threads, kind, tmp_path, monkeypatch):
    # a fresh K = 1 run filters its one row as a matrix-vector product, the
    # sweep slices it out of the K = 8 matrix product, for either noise kind:
    # max_rho may move in the last bits, the masks and everything scored
    # from them may not
    scenario = replace(SMALL, noise_kind=kind)
    masks = {}

    def keeping(pipeline, t, keep_fields=False, **rows):
        result, extras = run_trial(pipeline, t, keep_fields=True, **rows)
        masks[pipeline.scenario.count, t] = extras["estimate"]
        return result, extras

    monkeypatch.setattr(harness, "run_trial", keeping)
    swept = run_sweep(scenario, "K", [1, 2, 8], tmp_path, threads=threads)[0]["results"]
    monkeypatch.undo()
    fresh = build_pipeline(replace(scenario, count=1))
    results, _ = run_trials(fresh)
    assert len(swept) == len(results) == scenario.trials
    for t, (got, want) in enumerate(zip(swept, results)):
        assert np.array_equal(masks[1, t], run_trial(fresh, t, keep_fields=True)[1]["estimate"])
        assert (got.error, got.success_at_r) == (want.error, want.success_at_r)
        assert got.max_rho == pytest.approx(want.max_rho, rel=1e-15, abs=0.0)


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


def test_verify_computes_theta_once_per_size(monkeypatch):
    sizes = []
    theta = locop.theta
    monkeypatch.setattr(locop, "theta", lambda spec, phi: sizes.append(phi.n) or theta(spec, phi))
    run_verify(ns=(8, 16))
    assert sizes == [8, 16]


def test_the_verify_isometry_row_transforms_one_signal_at_a_time():
    # all 100 transforms at once held 100 n^2 16 B: a peak of about 13 MB at n = 64
    rows = {name: defect for name, _, defect in verify._size_rows(64, 1, np.random.default_rng(1))}
    tracemalloc.start()
    try:
        assert rows["tfcore.isometry"]() <= 1e-10
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3e6


def test_verify_corrupted_window_fails_isometry(monkeypatch):
    # transforms scaled by 1 + 1e-4, as a window off unit norm would give
    stft = tfcore.stft
    monkeypatch.setattr(tfcore, "stft", lambda f, g: stft(f, g) * (1.0 + 1e-4))
    checks = run_verify(ns=(8,), seed=5)
    failing = {c.name for c in checks if not c.passed}
    assert any(name.startswith("tfcore.isometry") for name in failing)


def _disc_operator():
    grid = tfcore.TFGrid(16)
    g = tfcore.make_window(grid, tfcore.WINDOW_GAUSSIAN)
    disc = maskgeom.disc_mask(grid, 4.0)
    return disc, g, locop.assemble_locop(disc, g)


def _corrupted_trace(monkeypatch):
    disc, _, H = _disc_operator()
    return verify.trace_defect(disc, H * (1.0 + 1e-6))


def _corrupted_first_moment(monkeypatch):
    # an operator off by 1 + 1e-6 moves its field by as much
    disc, g, H = _disc_operator()
    return verify.theta_first_moment(H * (1.0 + 1e-6), g, disc, g)


def _corrupted_eigen_expansion(monkeypatch):
    # filtered rows scaled by 1 + 1e-6, as an operator off by that much would give
    disc, _, H = _disc_operator()
    filter_batch = noise.filter_batch
    monkeypatch.setattr(noise, "filter_batch", lambda rows, H: filter_batch(rows, H) * (1 + 1e-6))
    rows = noise.sample_noise(disc.grid, 10, 1.0, seed=5).realizations
    return verify.eigen_expansion_defect(locop.spectrum(H, maskgeom.measure(disc)), rows)


def _corrupted_sigma_invariance(monkeypatch):
    # a fixed absolute threshold in place of a quarter of max rho sees the noise level
    _, g, H = _disc_operator()
    monkeypatch.setattr(estimator, "estimate_mask", lambda avg: estimator.MaskEstimate(
        cells=avg.rho >= 0.25, threshold=0.25, max_rho=float(avg.rho.max())
    ))
    return verify.sigma_invariance_defect(H, g, 8, 5)


def _corrupted_plateau(monkeypatch):
    # every operator scaled by 0.7 puts its plateau below the 0.75 level
    assemble = locop.assemble_locop
    monkeypatch.setattr(locop, "assemble_locop", lambda mask, g: 0.7 * assemble(mask, g))
    return max(verify.bank_plateau_violations(64).values())


# each defect that an acceptance criterion shares with a verify row, against
# that row's tolerance
@pytest.mark.parametrize(
    "corrupted, tolerance",
    [(_corrupted_trace, 1e-9), (_corrupted_first_moment, 1e-8),
     (_corrupted_eigen_expansion, 1e-9), (_corrupted_sigma_invariance, 0.0),
     (_corrupted_plateau, 0.0)],
    ids=["trace", "first_moment", "eigen_expansion", "sigma_invariance", "plateau"],
)
def test_a_shared_verify_defect_exceeds_its_tolerance_on_a_corrupted_input(
    corrupted, tolerance, monkeypatch
):
    assert corrupted(monkeypatch) > tolerance


# the child blocks scipy before the first import of maskrec, so any scipy
# import on the simulate or verify path fails there
_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
from maskrec import harness, verify

results = harness.run_simulate(harness.Scenario(n=32, count=6, trials=2), sys.argv[1])
checks = verify.run_verify(ns=(8,))
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


def test_importing_maskrec_loads_neither_concurrent_futures_nor_logging():
    # the workers are plain threads; numpy alone loads neither module
    code = (
        "import sys, maskrec; "
        "print([m for m in ('concurrent.futures', 'logging') if m in sys.modules])"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=_child_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_the_line_tracer_fails_on_unrun_lines_and_passes_pytest_status_through(tmp_path):
    # CI's one test run is this tool; a test file that only imports maskrec
    # leaves most of src/maskrec unrun, and selecting no test is pytest's 5
    tool = Path(__file__).resolve().parents[1] / "tools" / "unrun_lines.py"
    (tmp_path / "test_import.py").write_text("def test_ok(): import maskrec\n")
    codes = []
    for extra in ([], ["-k", "no_such_test"]):
        done = subprocess.run(
            [sys.executable, str(tool), "-p", "no:cacheprovider", *extra, "test_import.py"],
            cwd=tmp_path, env=_child_env(PYTEST_DISABLE_PLUGIN_AUTOLOAD="1"),
            capture_output=True, text=True, timeout=120,
        )
        assert re.search(r"^src/maskrec/\w+\.py:\d+: ", done.stdout, re.MULTILINE), done.stdout
        codes.append(done.returncode)
    assert codes == [1, 5]


def test_verify_rejects_out_of_range_sizes():
    with pytest.raises(errors.ConfigurationError):
        run_verify(ns=(4,))
    with pytest.raises(errors.ConfigurationError):
        run_verify(ns=(513,))


@pytest.mark.parametrize("n", [128, 256])
def test_verify_runs_at_a_simulation_size_and_reaches_the_large_bank_masks(n):
    # both sizes once exceeded verify's cap, so the plateau of the 128- and
    # 256-grid bank masks went unchecked; the tracemalloc peak was 8.1 MiB at
    # 128 and 28.5 MiB (29.9 MB) at 256, and the bound leaves a third again on top
    tracemalloc.start()
    try:
        checks = run_verify(ns=(n,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [c.line() for c in checks if not c.passed] == []
    names = [c.name for c in checks]
    assert names[:len(_VERIFY_ROWS) - 1] == [
        f"{name}[n={n}]" for name in _VERIFY_ROWS if name != "tfcore.reproducing"
    ]
    large = {
        128: {"band-96-128", "holey-plane-128"},
        256: {"band-96-128", "band-160-256", "holey-plane-128"},
    }
    assert {f"locop.plateau[{name}]" for name in large[n]} <= set(names)
    assert peak < 40e6


def test_verify_rejects_an_empty_size_list():
    # the empty-mask check runs on the first size, so there must be one
    with pytest.raises(errors.ConfigurationError, match="at least one size"):
        run_verify(ns=())


# ------------------------------------------------------------------ CLI


def test_the_cli_module_run_as_main_exits_with_mains_status(monkeypatch, capsys):
    # `python -m maskrec.cli`; the installed script calls main() itself
    monkeypatch.delitem(sys.modules, "maskrec.cli")
    monkeypatch.setattr(sys, "argv", ["maskrec", "verify", "--sizes", "8"])
    with pytest.raises(SystemExit) as exit_:
        runpy.run_module("maskrec.cli", run_name="__main__")
    assert exit_.value.code == 0
    assert capsys.readouterr().out.endswith(" checks passed\n")


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

    def poisoned(rows, H):
        out = real(rows, H)
        out[0, 0] = np.nan
        return out

    monkeypatch.setattr(noise, "filter_batch", poisoned)
    code = cli.main(
        ["simulate", "--n", "32", "--K", "4", "--trials", "1", "--out-dir", str(tmp_path)]
    )
    assert code == 3
    assert "not finite" in capsys.readouterr().err
    assert not (tmp_path / "trials.csv").exists()


def test_cli_spectrum(tmp_path):
    code = cli.main(
        [
            "spectrum", "--n", "16", "--shape", "full", "--K", "1",
            "--trials", "1", "--out-dir", str(tmp_path),
        ]
    )
    assert code == 0


def test_the_readme_library_block_runs(capsys):
    # the one python block of README.md, as written: it pins the top-level names it imports
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("ErrorReport(")
