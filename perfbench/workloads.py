"""The benchmark's workloads.

Each workload builds a maskrec ``Scenario`` from the workload seed and runs
one repetition through the public API.  ``record`` turns a repetition's
output into the deterministic JSON record that reference files and the
repetition-to-repetition checks compare; ``wall_time`` never enters it.

Why these three (the same text, shortened, is in ``BENCHMARK.json``):

* ``figure1``: the paper's headline experiment on one pool thread.  Per-trial
  layers do almost all the work (``error_report`` about 2/3 of a trial,
  ``average_spectrogram`` most of the rest); the operator is built once and
  the eigensolve and theta never run.
* ``ksweep``: the same scenario swept over K on two pool threads.  Estimator
  and noise cost grow with K, the operator is rebuilt for every value, and
  trials contend for the interpreter lock.
* ``operator512``: build, eigensolve and theta at n=512 with no noise drawn.
  Only the operator layer runs, which ``figure1`` nearly bypasses.

The roadmap's n in {128, 256, 512} grid is folded into n=256 (``figure1``,
``ksweep``) and n=512 (``operator512``): an n=128 run would repeat the
n=256 code path at a quarter of the cost.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import gammainc

from .checks import Check, bound, compare
from .tracer import mask_digest

DEFAULT_SEED = 7
#: The acceptance suite's calibrated containment radius (``CALIBRATED_R``).
CALIBRATED_R = 5.0
_IDENTITY_TOL = 1e-9


@contextmanager
def _collect_trials(harness):
    """Capture every ``run_trials`` result list while the block runs.

    ``run_sweep`` returns only summary rows; the per-trial results and their
    ``wall_time`` come from the value ``harness.run_trials`` returns.
    """
    batches: list = []
    original = harness.run_trials

    def collect(*args, **kwargs):
        results, extras = original(*args, **kwargs)
        batches.append(results)
        return results, extras

    harness.run_trials = collect
    try:
        yield batches
    finally:
        harness.run_trials = original


@dataclass
class TrialOutput:
    groups: list  # one list of TrialResult per scenario, in run order
    summary: list | None = None


@dataclass
class TrialWorkload:
    """Monte Carlo trials: ``run_simulate``, or ``run_sweep`` over K when ``sweep_k`` is set."""

    name: str
    threads: int
    overrides: dict = field(default_factory=dict)
    sweep_k: tuple[int, ...] = ()
    #: (group, trial index) pairs re-run against the reference in every run
    replay: tuple[tuple[int, int], ...] = ((0, 0),)
    setup_samples: int = 5
    kind = "trials"

    def scenario(self, seed: int):
        from maskrec import harness

        return replace(harness.PRESETS["figure1-left"], seed=seed, **self.overrides)

    def groups(self, scenario) -> list:
        if not self.sweep_k:
            return [scenario]
        return [replace(scenario, count=k) for k in self.sweep_k]

    def operations(self, scenario) -> int:
        return scenario.trials * len(self.groups(scenario))

    def reference_applies(self, seed: int) -> bool:
        return seed == DEFAULT_SEED

    def repetition(self, scenario, out_dir, threads: int) -> TrialOutput:
        from maskrec import harness

        if not self.sweep_k:
            return TrialOutput([harness.run_simulate(scenario, out_dir, threads=threads)])
        with _collect_trials(harness) as groups:
            summary = harness.run_sweep(
                scenario, "K", list(self.sweep_k), out_dir, threads=threads
            )
        return TrialOutput(groups, summary)

    @staticmethod
    def _row(result) -> dict:
        e = result.error
        return {
            "trial_index": result.trial_index,
            "seed": result.seed,
            "sym_diff_measure": e.sym_diff_measure,
            "perimeter": e.perimeter,
            "containment_radius": e.containment_radius,
            "ratio": e.ratio,
            "success": [bool(s) for s in result.success_at_r],
            "max_rho": result.max_rho,
        }

    def record(self, output: TrialOutput) -> dict:
        rows = [self._row(r) for group in output.groups for r in group]
        record = {key: [row[key] for row in rows] for key in (rows[0] if rows else {})}
        record["group"] = [g for g, group in enumerate(output.groups) for _ in group]
        if output.summary is not None:
            record["summary"] = [
                [s["value"], s["trials"], s["mean_sym_diff"], s["median_sym_diff"],
                 s["mean_ratio"], [float(x) for x in s["success_rates"]]]
                for s in output.summary
            ]
        return record

    def trial_ms(self, output: TrialOutput) -> list[float]:
        return [r.wall_time * 1e3 for group in output.groups for r in group]

    def success_rate(self, output: TrialOutput) -> float:
        radii = [r.error.containment_radius for group in output.groups for r in group]
        return sum(r <= CALIBRATED_R for r in radii) / len(radii)

    def setup_checks(self, pipeline) -> list[Check]:
        from maskrec import maskgeom

        defect = abs(float(np.trace(pipeline.H).real) - maskgeom.measure(pipeline.truth))
        return [bound("invariant.trace_equals_measure", defect, _IDENTITY_TOL)]

    def output_checks(self, scenario, output: TrialOutput) -> list[Check]:
        results = [r for group in output.groups for r in group]
        finite = all(
            math.isfinite(v)
            for r in results
            for v in (r.error.sym_diff_measure, r.error.containment_radius,
                      r.error.ratio, r.max_rho)
        )
        flags = all(
            r.success_at_r == tuple(r.error.containment_radius <= x for x in scenario.r_list)
            for r in results
        )
        counts = [len(group) for group in output.groups] == [scenario.trials] * len(
            self.groups(scenario)
        )
        return [
            Check("invariant.trial_count", counts),
            Check("invariant.finite_positive", finite and all(r.max_rho > 0 for r in results)),
            Check("invariant.success_flags", flags),
        ]

    def replay_checks(self, reference: dict) -> list[Check]:
        """Re-run the reference trials through ``run_trial`` and compare masks and rows."""
        from maskrec import harness

        want = reference["record"]
        groups = self.groups(self.scenario(DEFAULT_SEED))
        checks = []
        for g in sorted({g for g, _ in self.replay}):
            pipeline = harness.build_pipeline(groups[g])
            for t in [t for gg, t in self.replay if gg == g]:
                result, extras = harness.run_trial(pipeline, t, keep_fields=True)
                at = list(zip(want["group"], want["trial_index"])).index((g, t))
                row = self._row(result)
                checks.append(compare(
                    f"reference.replay_row[{g}:{t}]", row, {k: want[k][at] for k in row}
                ))
                checks.append(Check(
                    f"reference.replay_mask[{g}:{t}]",
                    mask_digest(extras["estimate"]) == reference["masks"][f"{g}:{t}"],
                ))
        return checks

    def make_reference(self) -> dict:
        """Reference outputs at the default seed: one repetition plus every trial's mask."""
        import tempfile

        from maskrec import harness

        scenario = self.scenario(DEFAULT_SEED)
        with tempfile.TemporaryDirectory() as out_dir:
            output = self.repetition(scenario, out_dir, threads=1)
        masks = {}
        for g, group_scenario in enumerate(self.groups(scenario)):
            pipeline = harness.build_pipeline(group_scenario)
            for t in range(group_scenario.trials):
                _, extras = harness.run_trial(pipeline, t, keep_fields=True)
                masks[f"{g}:{t}"] = mask_digest(extras["estimate"])
        return {"record": self.record(output), "masks": masks}


@dataclass
class OperatorOutput:
    omega: float
    trace: float
    eigenvalues: np.ndarray
    theta: np.ndarray
    cell_measure: float


@dataclass
class OperatorWorkload:
    """Operator layer only: ``build_pipeline``, ``locop.spectrum``, ``locop.theta``."""

    name: str
    n: int
    #: bound on max_k |lambda_k - P(k+1, |Omega|)| at this n
    oracle_tol: float
    shape: str = "disc:measure=100"
    setup_samples: int = 5
    threads = 1
    kind = "operator"

    def scenario(self, seed: int):
        from maskrec import harness

        return replace(harness.PRESETS["figure1-left"], n=self.n, shape=self.shape, seed=seed)

    def operations(self, scenario) -> int:
        return 1

    def reference_applies(self, seed: int) -> bool:
        # no noise is drawn, so the outputs do not depend on the seed
        return True

    def repetition(self, scenario, out_dir, threads: int) -> OperatorOutput:
        from maskrec import harness, locop, maskgeom

        pipeline = harness.build_pipeline(scenario)
        omega = maskgeom.measure(pipeline.truth)
        spec = locop.spectrum(pipeline.H, omega)
        th = locop.theta(spec, pipeline.recon)
        return OperatorOutput(
            omega=omega,
            trace=float(np.trace(pipeline.H).real),
            eigenvalues=spec.eigenvalues,
            theta=th.values,
            cell_measure=pipeline.grid.cell_measure,
        )

    def record(self, output: OperatorOutput) -> dict:
        mid = output.theta.shape[0] // 2
        return {
            "omega": output.omega,
            "trace": output.trace,
            "eigenvalues": output.eigenvalues.tolist(),
            "theta_row": output.theta[mid].tolist(),
            "theta_col": output.theta[:, mid].tolist(),
            "theta_max": float(output.theta.max()),
            "theta_mass": float(output.theta.sum() * output.cell_measure),
        }

    def trial_ms(self, output: OperatorOutput) -> list[float]:
        return []

    @staticmethod
    def oracle_gap(output: OperatorOutput) -> float:
        """max_k |lambda_k - P(k+1, |Omega|)|, the Daubechies (1988) disc spectrum."""
        k = np.arange(output.eigenvalues.size)
        return float(np.max(np.abs(output.eigenvalues - gammainc(k + 1, output.omega))))

    def setup_checks(self, pipeline) -> list[Check]:
        return []

    def output_checks(self, scenario, output: OperatorOutput) -> list[Check]:
        ev = output.eigenvalues
        return [
            bound("invariant.trace_equals_measure", abs(output.trace - output.omega), _IDENTITY_TOL),
            Check("invariant.eigenvalues_in_unit_interval",
                  bool(ev.min() >= 0.0 and ev.max() <= 1.0),
                  f"[{ev.min():.3e}, {ev.max():.6f}]"),
            bound("invariant.oracle_gap", self.oracle_gap(output), self.oracle_tol),
            bound("invariant.theta_max", float(output.theta.max()), 1.0 + _IDENTITY_TOL),
            bound("invariant.theta_mass",
                  float(output.theta.sum() * output.cell_measure) - output.omega, _IDENTITY_TOL),
        ]

    def replay_checks(self, reference: dict) -> list[Check]:
        return []

    def make_reference(self) -> dict:
        return {"record": self.record(self.repetition(self.scenario(DEFAULT_SEED), None, 1))}


WORKLOADS = {
    "figure1": TrialWorkload("figure1", threads=1, replay=((0, 0), (0, 1), (0, 2))),
    "ksweep": TrialWorkload(
        "ksweep", threads=2, overrides={"trials": 20}, sweep_k=(4, 8, 16, 32, 64),
        replay=((0, 0), (4, 0)),
    ),
    # a cold n=512 set-up takes about 2 s, so three samples instead of five
    "operator512": OperatorWorkload("operator512", n=512, oracle_tol=3e-5, setup_samples=3),
}
