"""Command-line entry point: parse, call one ``experiments`` runner, print.

Subcommands: generate, oracle, sweep, coverage, noise-fit, fragment.
Exit codes: 0 success, 2 configuration/input error, 3 runtime, fit or
float64-range error.  Every subcommand's options are rows of one table:
a well-formed command line is parsed from it directly, and argparse,
built from the same rows, is imported only for help, usage and errors.
"""

from __future__ import annotations

import atexit
import functools
import gc
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .experiments import (
    _FIELDS,
    COVERAGE_ALGORITHMS,
    MODELS,
    ExperimentConfig,
    load_config,
    run_coverage,
    run_fragment,
    run_generate,
    run_noise_fit,
    run_oracle,
    run_sweep,
    write_outputs,
)
from .record import ValueRecord


def _config_from_args(args: SimpleNamespace):
    overrides = {k: v for k, v in vars(args).items() if k in ExperimentConfig.fields}
    return load_config(getattr(args, "config", None), **overrides)


def _cmd_generate(args: SimpleNamespace) -> int:
    for path in run_generate(_config_from_args(args), args.out):
        print(path)
    return 0


def _cmd_oracle(args: SimpleNamespace) -> int:
    # the field flags but --beta give the instance and its seed, as --spec does
    given = {name: getattr(args, name) for name in ExperimentConfig.fields
             if name != "betas" and getattr(args, name, None) is not None}
    if args.spec is not None and given:
        flags = " ".join(map(_flag, given))
        raise ValueError(f"--spec gives the instance, so {flags} cannot be given with it")
    config = None if args.spec is not None else load_config(None, **given)
    text = run_oracle(args.spec, config, args.betas)
    if args.out is not None:
        write_outputs(args.out.parent, {args.out.name: text})
    else:
        print(text, end="")
    return 0


def _cmd_sweep(args: SimpleNamespace) -> int:
    summary = run_sweep(_config_from_args(args), args.out)
    print(json.dumps({"config_hash": summary["config_hash"], "rows": summary["rows"]}))
    return 0


def _cmd_coverage(args: SimpleNamespace) -> int:
    report = run_coverage(_config_from_args(args), args.algorithm, args.out)
    print(json.dumps({"algorithm": args.algorithm, "coverage": report["coverage"]}))
    return 0


def _cmd_noise_fit(args: SimpleNamespace) -> int:
    report = run_noise_fit(args.series, args.out)
    print(json.dumps({"xi": report["xi"], "xi_sigma": report["xi_sigma"]}))
    return 0


def _cmd_fragment(args: SimpleNamespace) -> int:
    summary = run_fragment(_config_from_args(args), args.out)
    print(json.dumps({"schedule_sizes": summary["schedule_sizes"]}))
    return 0


class _Option(ValueRecord):
    """One row of the option table: a ``--flag`` and its argparse keywords."""

    __slots__ = fields = ("flag", "dest", "type", "default", "required", "choices", "help")

    def __init__(self, flag: str, type=None, *, dest: str | None = None, default=None,
                 required: bool = False, choices: tuple | None = None,
                 help: str | None = None) -> None:
        self._set(flag=flag, dest=dest or flag[2:].replace("-", "_"), type=type,
                  default=default, required=required, choices=choices, help=help)


def _flag(name: str) -> str:
    """A config field's flag: ``--beta`` for ``betas``, else ``--<name-with-dashes>``."""
    return "--beta" if name == "betas" else f"--{name.replace('_', '-')}"


def _list_value(parse, kind: str, text: str):
    """``text`` read by a list grammar: argparse words a bad value as the grammar does."""
    try:
        return parse(text)
    except ValueError:
        import argparse  # the error path only; argparse words the message

        raise argparse.ArgumentTypeError(f"expected {kind}, got {text!r}") from None


def _field_option(name: str, default=None, help: str | None = None) -> _Option:
    """A config field's row, typed by its grammar in ``_FIELDS``.  Its default is
    None unless the command has its own: the config has the defaults."""
    parse, kind = _FIELDS[name][1]
    return _Option(_flag(name), parse if isinstance(parse, type)
                   else functools.partial(_list_value, parse, kind),
                   dest=name, default=default, help=help,
                   choices=MODELS if name == "model" else None)


_OUT_DIR = _Option("--out", required=True, help="output directory")
_INSTANCE_FIELDS = ("model", "n_qubits", "n_visible", "n_hidden")
# the help texts of the config commands' field flags
_FIELD_HELP = {
    "seed": "root seed override", "shots": "shots per sample point",
    "betas": "comma-separated beta values", "eps_r": "relative-error target",
    "delta": "failure probability", "xi": "depolarizing strength per layer",
    "layers": "base circuit depth",
}


def _config_options(fields: str) -> tuple[_Option, ...]:
    """``--config``, the flags of the fields named in ``fields`` and ``--out``."""
    return (_Option("--config", Path, help="flat key=value config file"),
            *(_field_option(name, help=_FIELD_HELP.get(name)) for name in fields.split()),
            _OUT_DIR)


# one row per subcommand: help text, positional (dest, choices) or None,
# options in help order (a config command's: the fields its runner reads), handler
_COMMANDS = {
    "generate": ("write random instance spec files", None, (
        *map(_field_option, _INSTANCE_FIELDS),
        _field_option("instances", default=1),
        _field_option("seed"),
        _OUT_DIR,
    ), _cmd_generate),
    "oracle": ("exact reference values for an instance", None, (
        _Option("--spec", Path, help="instance spec JSON file"),
        *map(_field_option, _INSTANCE_FIELDS),
        _field_option("seed"),
        _field_option("betas", default=(1.0,)),
        _Option("--out", Path, help="output JSON path (default stdout)"),
    ), _cmd_oracle),
    "sweep": ("beta sweep with sampling and mitigation", None, _config_options(
        "seed shots betas delta xi layers model n_qubits instances"), _cmd_sweep),
    "coverage": ("repetition study of an estimator",
                 ("algorithm", COVERAGE_ALGORITHMS),
                 _config_options("seed betas eps_r delta model n_qubits reps"),
                 _cmd_coverage),
    "noise-fit": ("fit a depth-series CSV", None, (
        _Option("--series", Path, required=True,
                help="CSV with columns layers,successes,shots"),
        _OUT_DIR,
    ), _cmd_noise_fit),
    "fragment": ("fragmented-coin cost study", None,
                 _config_options("seed betas model n_qubits"), _cmd_fragment),
}


def _parse_direct(argv: list[str]) -> SimpleNamespace | None:
    """Parse a well-formed command line from the option table, or return None.

    Well-formed is the subcommand first, coverage's algorithm right after
    it, then ``--flag value`` pairs with full flag names: each flag at most
    once, no value starting with ``-``, and every type conversion, choice
    and required flag passing.  Such a line gets the namespace argparse
    gives it.  Any other line, help included, is left to ``build_parser``.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    command, rest = argv[0], argv[1:]
    _, positional, options, handler = _COMMANDS[command]
    values = {"command": command, "func": handler}
    values.update((opt.dest, opt.default) for opt in options)
    if positional is not None:
        dest, choices = positional
        if not rest or rest[0] not in choices:
            return None
        values[dest], rest = rest[0], rest[1:]
    if len(rest) % 2:
        return None
    by_flag = {opt.flag: opt for opt in options}
    given = set()
    for flag, text in zip(rest[::2], rest[1::2]):
        if flag not in by_flag or flag in given or text.startswith("-"):
            return None
        given.add(flag)
        opt = by_flag[flag]
        try:
            value = text if opt.type is None else opt.type(text)
        except Exception:  # argparse converts the text again, and reports or raises
            return None
        if opt.choices is not None and value not in opt.choices:
            return None
        values[opt.dest] = value
    if any(opt.required and opt.flag not in given for opt in options):
        return None
    return SimpleNamespace(**values)


def build_parser():
    """The ``qcoin`` argparse parser, built from the option table.

    ``main`` needs it only for the lines ``_parse_direct`` leaves: help,
    usage, every error text and the syntax only argparse accepts
    (``--out=x``, abbreviations, repeated flags, ``-1`` values).
    """
    import argparse  # here only, so a well-formed command never imports it

    class Subcommand(argparse.ArgumentParser):
        """A subcommand's parser, which reports an argument it does not know
        with its own usage, not the top-level one."""

        def parse_known_args(self, args=None, namespace=None):
            namespace, extras = super().parse_known_args(args, namespace)
            if extras:
                self.error(f"unrecognized arguments: {' '.join(extras)}")
            return namespace, extras

    parser = argparse.ArgumentParser(
        prog="qcoin",
        description="Quantum-coin partition function estimation experiments",
    )
    subs = parser.add_subparsers(dest="command", required=True, parser_class=Subcommand)
    for name, (help_text, positional, options, handler) in _COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        if positional is not None:
            sub.add_argument(positional[0], choices=positional[1])
        for opt in options:
            sub.add_argument(opt.flag, dest=opt.dest, type=opt.type, default=opt.default,
                             required=opt.required, choices=opt.choices, help=opt.help)
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


def _run(args: SimpleNamespace) -> int:
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
    pass; what it leaves in reference cycles (argparse's parser, when the
    line needed it) waits for the caller's next pass.
    """
    _freeze_heap_at_exit()  # before parsing, so argparse's error exit is fast too
    argv = sys.argv[1:] if argv is None else argv
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = _parse_direct(argv)
        if args is None:
            args = SimpleNamespace(**vars(build_parser().parse_args(argv)))
        return _run(args)
    finally:
        if collecting:
            gc.enable()


def entry() -> int:
    """The installed ``qcoin`` script and ``python -m qcoin.cli``: run ``main``.

    The process ends with the command, so the collector stays off from here
    on and the process makes no collector pass after its import.
    """
    gc.disable()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
