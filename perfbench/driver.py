"""One benchmark request: a fresh process that imports qcoin and runs one CLI command.

Usage: driver.py STAMP_PATH TRACE [CLI ARGS...]

The parent records the monotonic time just before spawning this process.
This process writes STAMP_PATH (JSON) on exit with the monotonic time at
which ``import qcoin.cli`` finished, and, when TRACE is 1, the spans that
``trace.Tracer`` recorded around the calls into each qcoin layer.  With no
CLI arguments it only imports, which is how set-up time is sampled.
CLOCK_MONOTONIC is system-wide on Linux, so the two processes' stamps can
be subtracted.  The exit code is the CLI's.
"""

import time

_T_START = time.monotonic_ns()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    stamp_path, traced, cli_args = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    import qcoin.cli

    t_imported = time.monotonic_ns()
    tracer = None
    if traced:
        from trace_layers import Tracer

        tracer = Tracer(_T_START)
        tracer.install()
    code = 0
    try:
        if cli_args:
            try:
                code = qcoin.cli.main(cli_args)
            except SystemExit as exc:  # argparse rejects bad arguments this way
                code = exc.code if isinstance(exc.code, int) else 2
    finally:
        stamp = {
            "imported_ns": t_imported,
            "qcoin_file": qcoin.__file__,
            "spans": tracer.finish() if tracer else None,
        }
        with open(stamp_path, "w", encoding="utf-8") as fh:
            json.dump(stamp, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main())
