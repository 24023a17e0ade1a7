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
    _MAX_INSTANCES,
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


def _add_config_overrides(sub: argparse.ArgumentParser) -> None:
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


def _config_from_args(args: argparse.Namespace):
    overrides = {
        key: getattr(args, key, None)
        for key in ("seed", "shots", "betas", "eps_r", "delta", "xi", "layers",
                    "model", "n_qubits", "instances", "reps")
    }
    return load_config(args.config, **overrides)


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.instances < 1:
        raise ValueError("field 'instances' must be >= 1")
    if args.instances > _MAX_INSTANCES:
        raise ValueError(
            f"field 'instances' must be <= {_MAX_INSTANCES}: every spec is built "
            f"before any file is written"
        )
    seeds = SeedStream(args.seed)
    files = {
        f"instance_{idx:03d}.json": _instance_spec(args, seeds.next()).to_json() + "\n"
        for idx in range(args.instances)
    }
    for path in write_outputs(args.out, files):
        print(path)
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    if args.spec is not None:
        spec = spec_from_json(Path(args.spec).read_text(encoding="utf-8"))
    else:
        spec = _instance_spec(args, args.seed if args.seed is not None else 0)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcoin",
        description="Quantum-coin partition function estimation experiments",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("generate", help="write random instance spec files")
    gen.add_argument("--model", choices=("ising", "qrbm"), default="ising")
    gen.add_argument("--n-qubits", type=int, dest="n_qubits", default=4)
    gen.add_argument("--n-visible", type=int, dest="n_visible", default=2)
    gen.add_argument("--n-hidden", type=int, dest="n_hidden", default=2)
    gen.add_argument("--instances", type=int, default=1)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output directory")
    gen.set_defaults(func=_cmd_generate)

    orc = subs.add_parser("oracle", help="exact reference values for an instance")
    orc.add_argument("--spec", type=Path, help="instance spec JSON file")
    orc.add_argument("--model", choices=("ising", "qrbm"), default="ising")
    orc.add_argument("--n-qubits", type=int, dest="n_qubits", default=4)
    orc.add_argument("--n-visible", type=int, dest="n_visible", default=2)
    orc.add_argument("--n-hidden", type=int, dest="n_hidden", default=2)
    orc.add_argument("--seed", type=int)
    orc.add_argument("--beta", type=_beta_list, dest="betas")
    orc.add_argument("--out", type=Path, help="output JSON path (default stdout)")
    orc.set_defaults(func=_cmd_oracle)

    swp = subs.add_parser("sweep", help="beta sweep with sampling and mitigation")
    _add_config_overrides(swp)
    swp.add_argument("--out", required=True, help="output directory")
    swp.set_defaults(func=_cmd_sweep)

    cov = subs.add_parser("coverage", help="repetition study of an estimator")
    cov.add_argument("algorithm", choices=("alg1", "alg2", "iterative"))
    _add_config_overrides(cov)
    cov.add_argument("--out", required=True, help="output directory")
    cov.set_defaults(func=_cmd_coverage)

    nft = subs.add_parser("noise-fit", help="fit a depth-series CSV")
    nft.add_argument("--series", required=True, type=Path,
                     help="CSV with columns layers,successes,shots")
    nft.add_argument("--out", required=True, help="output directory")
    nft.set_defaults(func=_cmd_noise_fit)

    frg = subs.add_parser("fragment", help="fragmented-coin cost study")
    _add_config_overrides(frg)
    frg.add_argument("--out", required=True, help="output directory")
    frg.set_defaults(func=_cmd_fragment)

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


def main(argv: list[str] | None = None) -> int:
    _freeze_heap_at_exit()  # before parsing, so argparse's error exit is fast too
    args = build_parser().parse_args(argv)
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


if __name__ == "__main__":
    sys.exit(main())
