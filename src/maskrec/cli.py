"""Command-line harness: simulate, sweep, spectrum, verify.

A scenario flag is ``--`` plus a key of ``harness.SCENARIO_KEYS`` (``_`` as
``-``).  A preset's keys (``harness.PRESET_KEYS``), then a config file's, then
the flags merge into one mapping, and ``harness.scenario_from_mapping`` turns
it into the scenario.  Exit codes: 0 success, 1 a failed verification and
nothing else, 2 any malformed or repeated flag, config file, shape spec,
comma list, PGM image or output path, and any input too large to allocate
(a ``MemoryError``), 3 numeric/model failure.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigurationError, NumericError
from . import harness, verify

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


_HELP = {
    "n": "grid size",
    "shape": "mask shape spec, e.g. disc:measure=100",
    "K": "noise realizations per trial",
    "noise_kind": "complex or real",
    "r_list": "comma-separated radii",
}


class _Parser(argparse.ArgumentParser):
    """An argparse error is a ConfigurationError, so it prints one ``error:`` line."""

    def error(self, message):
        raise ConfigurationError(message)


class _Once(argparse.Action):
    """Store a flag's value; a second occurrence of the flag is malformed."""

    def __call__(self, parser, namespace, values, option_string=None):
        given = namespace.__dict__.setdefault("_given", set())
        if self.dest in given:
            raise ConfigurationError(f"{option_string} given more than once")
        given.add(self.dest)
        setattr(namespace, self.dest, values)


def _add_scenario_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", action=_Once, help="key/value scenario config file")
    parser.add_argument(
        "--scenario-preset",
        action=_Once,
        choices=sorted(harness.PRESET_KEYS),
        help="start from a named scenario preset",
    )
    for key in harness.SCENARIO_KEYS:
        flag = "--" + key.replace("_", "-")
        parser.add_argument(
            flag, dest=key, action=_Once, default=argparse.SUPPRESS, help=_HELP.get(key)
        )
    parser.add_argument("--out-dir", action=_Once, default="out", help="artifact directory")


def _scenario_from_args(args: argparse.Namespace) -> harness.Scenario:
    """The preset's keys, then the config file's, then the flags, as one mapping."""
    values = dict(harness.PRESET_KEYS.get(args.scenario_preset, {}))
    if args.config:
        values.update(harness.load_config(args.config))
    flags = {k: v for k, v in vars(args).items() if k in harness.SCENARIO_KEYS}
    if args.scenario_preset is None and not args.config and not flags:
        raise ConfigurationError(
            "no scenario given: use --config, --scenario-preset, or flags"
        )
    # preset and file keys must hold a scenario of their own, even under a flag
    harness.scenario_from_mapping(values)
    return harness.scenario_from_mapping({**values, **flags})


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="maskrec",
        description="Recover a binary time-frequency mask from filtered white noise",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run seeded Monte Carlo trials")
    _add_scenario_args(p_sim)

    p_sweep = sub.add_parser("sweep", help="sweep K or the mask measure")
    _add_scenario_args(p_sweep)
    p_sweep.add_argument("--axis", action=_Once, required=True, choices=["K", "measure"])
    p_sweep.add_argument(
        "--values", action=_Once, required=True, help="comma-separated ascending axis values"
    )

    for pooled in (p_sim, p_sweep):
        pooled.add_argument(
            "--threads", action=_Once, type=int, default=1,
            help="trial workers, the calling thread among them (default 1, which starts"
            " no thread; at most one per trial and per usable CPU)",
        )

    p_spec = sub.add_parser("spectrum", help="eigenvalue profile of the operator")
    _add_scenario_args(p_spec)

    p_verify = sub.add_parser("verify", help="run the invariant suite")
    p_verify.add_argument(
        "--sizes", dest="ns", action=_Once, default=argparse.SUPPRESS,
        type=lambda text: harness.parse_list("--sizes", text, int),
        help="comma-separated grid sizes",
    )
    p_verify.add_argument("--seed", action=_Once, type=int, default=argparse.SUPPRESS)
    return parser


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "verify":
        given = {k: v for k, v in vars(args).items() if k in ("ns", "seed")}
        checks = verify.run_verify(**given)
        failures = [c for c in checks if not c.passed]
        for check in checks:
            print(check.line())
        print(f"{len(checks) - len(failures)}/{len(checks)} checks passed")
        return EXIT_OK if not failures else EXIT_VERIFY_FAILED

    scenario = _scenario_from_args(args)
    if args.command == "simulate":
        results = harness.run_simulate(scenario, args.out_dir, threads=args.threads)
        successes = sum(all(r.success_at_r) for r in results)
        print(
            f"{len(results)} trials -> {args.out_dir}/trials.csv "
            f"({successes} contained at the strictest radius)"
        )
        return EXIT_OK
    if args.command == "sweep":
        kind = int if args.axis == "K" else float
        values = harness.parse_list("--values", args.values, kind)
        rows = harness.run_sweep(scenario, args.axis, values, args.out_dir, args.threads)
        print(f"{len(rows)} sweep rows -> {args.out_dir}/summary.csv")
        return EXIT_OK
    path = harness.run_spectrum(scenario, args.out_dir)
    print(f"spectrum -> {path}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        return _dispatch(parser.parse_args(argv))
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
