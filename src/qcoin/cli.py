"""Command-line entry point.

Subcommands: generate, oracle, sweep, coverage, noise-fit, fragment.
Exit codes: 0 success, 2 configuration/input error, 3 runtime, fit or
float64-range error.
"""

from __future__ import annotations

import argparse
import atexit
import functools
import gc
import json
import sys
from pathlib import Path

import numpy as np

from .coin import SeedStream
from .experiments import (
    ExperimentConfig,
    _instance_spec,
    json_text,
    load_config,
    run_coverage,
    run_fragment,
    run_noise_fit,
    run_sweep,
    write_outputs,
)
from .hamiltonian import spec_from_json, unit_spectrum
from .oracle import oracle_report


def _beta_list(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def _add_config_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", type=Path, help="flat key=value config file")
    sub.add_argument("--seed", type=int, help="root seed override")
    sub.add_argument("--shots", type=int, help="shots per sample point")
    sub.add_argument("--beta", type=_beta_list, dest="betas",
                     help="comma-separated beta values")
    sub.add_argument("--eps-r", type=float, dest="eps_r",
                     help="relative-error target")
    sub.add_argument("--delta", type=float, help="failure probability")
    sub.add_argument("--xi", type=float, help="depolarizing strength per layer")
    sub.add_argument("--layers", type=int, help="base circuit depth")
    sub.add_argument("--model", choices=("ising", "qrbm"))
    sub.add_argument("--n-qubits", type=int, dest="n_qubits")
    sub.add_argument("--instances", type=int)
    sub.add_argument("--reps", type=int)
    sub.add_argument("--out", required=True, help="output directory")


def _config_from_args(args: argparse.Namespace):
    overrides = {k: v for k, v in vars(args).items() if k in ExperimentConfig.fields}
    return load_config(args.config, **overrides)


def _cmd_generate(args: argparse.Namespace) -> int:
    ExperimentConfig(instances=args.instances, seed=args.seed)  # the config file's rules
    seeds = SeedStream(args.seed)
    files = {
        f"instance_{idx:03d}.json": _instance_spec(args, seeds.next()).to_json() + "\n"
        for idx in range(args.instances)
    }
    for path in write_outputs(args.out, files):
        print(path)
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    seed = args.seed or 0
    ExperimentConfig(seed=seed)  # the config file's seed rule
    if args.spec is not None:
        spec = spec_from_json(Path(args.spec).read_text(encoding="utf-8"))
    else:
        spec = _instance_spec(args, seed)
    spectrum = unit_spectrum(spec)
    reports = []
    for beta in args.betas or (1.0,):
        beta_coin = spectrum.norm_bound * beta
        report = oracle_report(spectrum, beta_coin)
        reports.append(
            {"beta": beta, "beta_coin": beta_coin, "norm_bound": spectrum.norm_bound,
             **report.as_dict()}
        )
    text = json_text({"kind": "oracle", "reports": reports})
    if args.out is not None:
        write_outputs(args.out.parent, {args.out.name: text})
    else:
        print(text, end="")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    summary = run_sweep(config, args.out)
    print(json.dumps({"config_hash": summary["config_hash"],
                      "rows": summary["rows"]}))
    return 0


def _cmd_coverage(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    report = run_coverage(config, args.algorithm, args.out)
    print(json.dumps({"algorithm": args.algorithm,
                      "coverage": report["coverage"]}))
    return 0


def _cmd_noise_fit(args: argparse.Namespace) -> int:
    report = run_noise_fit(args.series, args.out)
    print(json.dumps({"xi": report["xi"], "xi_sigma": report["xi_sigma"]}))
    return 0


def _cmd_fragment(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    run_fragment(config, args.out)
    print(json.dumps({"schedule_sizes": list(config.schedule_sizes)}))
    return 0


def _add_instance_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--model", choices=("ising", "qrbm"), default="ising")
    sub.add_argument("--n-qubits", type=int, dest="n_qubits", default=4)
    sub.add_argument("--n-visible", type=int, dest="n_visible", default=2)
    sub.add_argument("--n-hidden", type=int, dest="n_hidden", default=2)


def _add_generate_args(sub: argparse.ArgumentParser) -> None:
    _add_instance_args(sub)
    sub.add_argument("--instances", type=int, default=1)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", required=True, help="output directory")


def _add_oracle_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--spec", type=Path, help="instance spec JSON file")
    _add_instance_args(sub)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--beta", type=_beta_list, dest="betas")
    sub.add_argument("--out", type=Path, help="output JSON path (default stdout)")


def _add_coverage_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("algorithm", choices=("alg1", "alg2", "iterative"))
    _add_config_args(sub)


def _add_noise_fit_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--series", required=True, type=Path,
                     help="CSV with columns layers,successes,shots")
    sub.add_argument("--out", required=True, help="output directory")


# one row per subcommand: help text, argument adder, handler
_COMMANDS = {
    "generate": ("write random instance spec files", _add_generate_args, _cmd_generate),
    "oracle": ("exact reference values for an instance", _add_oracle_args, _cmd_oracle),
    "sweep": ("beta sweep with sampling and mitigation", _add_config_args, _cmd_sweep),
    "coverage": ("repetition study of an estimator", _add_coverage_args, _cmd_coverage),
    "noise-fit": ("fit a depth-series CSV", _add_noise_fit_args, _cmd_noise_fit),
    "fragment": ("fragmented-coin cost study", _add_config_args, _cmd_fragment),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``qcoin`` parser, with every subcommand's arguments or only ``command``'s.

    Every subcommand is added either way, so the top-level usage, help and
    invalid-choice texts do not depend on ``command``.
    """
    parser = argparse.ArgumentParser(
        prog="qcoin",
        description="Quantum-coin partition function estimation experiments",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_args, handler) in _COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        if command is None or command == name:
            add_args(sub)
        sub.set_defaults(func=handler)
    return parser


@functools.cache
def _freeze_heap_at_exit() -> None:
    """Register ``gc.freeze`` with ``atexit``, once per process.

    At interpreter exit every live object then moves to the permanent
    generation, so shutdown skips the collector's passes over numpy's object
    graph (tens of milliseconds per process) and leaves the memory to the
    OS.  Nothing is frozen before exit, so in-process callers keep a normal
    collector.
    """
    atexit.register(gc.freeze)


def _run(args: argparse.Namespace) -> int:
    """Run a parsed command; map its errors to one stderr line and an exit code."""
    try:
        with np.errstate(over="raise"):  # FloatingPointError, not a silent inf
            return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ArithmeticError as exc:
        print(f"error: float64 range exceeded: {exc}", file=sys.stderr)
        return 3


def main(argv: list[str] | None = None) -> int:
    """Run one ``qcoin`` command; return its exit code.

    The cyclic collector is paused for the whole command, parsing included,
    and then put back as the caller had it, so a command makes no collector
    pass; what it leaves in reference cycles (the parser, mostly) waits for
    the caller's next pass.
    """
    _freeze_heap_at_exit()  # before parsing, so argparse's error exit is fast too
    argv = sys.argv[1:] if argv is None else argv
    # the top-level parser has no option that takes a value, so the first
    # argument that names a subcommand is the one argparse runs
    command = next((arg for arg in argv if arg in _COMMANDS), None)
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _run(build_parser(command).parse_args(argv))
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    gc.disable()  # this process ends with the command: no collection after the import
    sys.exit(main())
