"""The CLI across a real process boundary: ``python -m qcoin.cli`` in a subprocess.

``main`` registers ``gc.freeze`` with ``atexit``, so a CLI process skips the
collector's pass at interpreter exit.  These tests check that a process still
exits with the right code, prints the same lines and writes the same files as
an in-process call, and that nothing is frozen before the process exits.
"""

import atexit
import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qcoin
from qcoin.cli import main

SRC = Path(qcoin.__file__).resolve().parents[1]


def run_process(args, *, code=None, cwd=None):
    """Run ``python -m qcoin.cli ARGS`` (or ``python -c CODE ARGS``) with qcoin from SRC."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    head = ["-c", code] if code is not None else ["-m", "qcoin.cli"]
    return subprocess.run([sys.executable, "-W", "error", *head, *args], env=env,
                          cwd=cwd, capture_output=True, text=True, timeout=60)


def read_tree(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("argv", [
    ["sweep", "--n-qubits", "4", "--instances", "1", "--beta", "0.5,1",
     "--shots", "500", "--xi", "0.037", "--seed", "5"],
    ["coverage", "iterative", "--n-qubits", "4", "--beta", "1", "--reps", "20",
     "--seed", "5"],
    ["fragment", "--n-qubits", "4", "--beta", "1", "--seed", "5"],
    ["oracle", "--n-qubits", "4", "--beta", "0.5,2", "--seed", "5"],
], ids=["sweep-xi", "coverage-iterative", "fragment", "oracle"])
def test_process_matches_in_process_main(tmp_path, capsys, argv):
    proc_out, local_out = tmp_path / "process" / "out", tmp_path / "local" / "out"
    proc_out.parent.mkdir()
    local_out.parent.mkdir()
    proc = run_process([*argv, "--out", str(proc_out)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""

    assert main([*argv, "--out", str(local_out)]) == 0
    captured = capsys.readouterr()
    assert proc.stdout == captured.out
    written = read_tree(proc_out.parent)
    assert written and written == read_tree(local_out.parent)


SERIES_ZERO_SHOTS = "layers,successes,shots\n10,0,0\n12,0,0\n14,0,0\n"
# a depth series on which the Gauss-Newton fit hits its iteration cap
SERIES_NO_CONVERGENCE = (
    "layers,successes,shots\n3,4,5\n48,3,5\n86,2,5\n119,1,5\n152,5,5\n"
)
# the fitted curve would have 10^12 rows, one per layer of the span
SERIES_WIDE_SPAN = "layers,successes,shots\n1,900,1000\n2,890,1000\n1000000000000,500,1000\n"


@pytest.mark.parametrize("argv, files, code, message", [
    (["sweep", "--shots", "0"], {}, 2, "field 'shots' must be >= 1"),
    (["noise-fit", "--series", "series.csv"], {"series.csv": SERIES_NO_CONVERGENCE},
     3, "no convergence after 200 iterations"),
    (["oracle", "--spec", "s.json"], {"s.json": '{"kind": "ising"}'}, 2,
     "spec field 'n_qubits' is missing"),
    (["oracle", "--spec", "s.json"],
     {"s.json": '{"kind": "ising", "n_qubits": 2, "edges": [[0, 1]], "seed": 0}'}, 2,
     "spec field 'edges': entry 0"),
    (["oracle", "--spec", "s.json"], {"s.json": "[]"}, 2, "spec must be a JSON object"),
    (["noise-fit", "--series", "series.csv"], {"series.csv": SERIES_ZERO_SHOTS}, 2,
     "shots = 0 must be >= 1"),
    (["fragment", "--config", "cfg.txt"],
     {"cfg.txt": "schedule_sizes = 1000000000000000\n"}, 2,
     "field 'schedule_sizes' must hold sizes <= 10000"),
    (["sweep", "--instances", "1000000000000"], {}, 2,
     "field 'instances' must be <= 10000"),
    (["generate", "--instances", "1000000000000"], {}, 2,
     "field 'instances' must be <= 10000"),
    (["sweep", "--n-qubits", "13"], {}, 2, "n_qubits=13 is outside 1..12"),
    (["fragment", "--n-qubits", "13"], {}, 2, "n_qubits=13 is outside 1..12"),
    (["noise-fit", "--series", "series.csv"], {"series.csv": SERIES_WIDE_SPAN}, 2,
     "series depths must span at most 100000 layers"),
    (["sweep", "--config", "cfg.txt", "--xi", "0.037"],
     {"cfg.txt": "insertions = 100000000000\n"}, 2,
     "field 'insertions' must be <= 10000"),
], ids=["input-error", "runtime-error", "spec-missing-field", "spec-short-edge",
        "spec-not-object", "series-zero-shots", "schedule-size-cap",
        "sweep-instances-cap", "generate-instances-cap", "sweep-qubit-cap",
        "fragment-qubit-cap", "series-span-cap", "sweep-insertions-cap"])
def test_process_error_exit_is_one_line(tmp_path, argv, files, code, message):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    proc = run_process([*argv, "--out", str(tmp_path / "out")], cwd=tmp_path)
    assert proc.returncode == code
    assert message in proc.stderr and "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()  # a failed command writes nothing


FREEZE_PROBE = """
import atexit, gc, sys
atexit.register(lambda: print("frozen at exit:", gc.get_freeze_count() > 0))
from qcoin.cli import main
try:
    code = main(sys.argv[1:])
finally:
    print("frozen after main:", gc.get_freeze_count() > 0)
sys.exit(code)
"""


@pytest.mark.parametrize("argv, code", [
    (["oracle", "--n-qubits", "4", "--beta", "1"], 0),
    (["sweep"], 2),  # argparse: --out is required
], ids=["oracle", "argparse-error"])
def test_process_heap_is_frozen_at_exit_only(argv, code):
    # atexit runs its handlers last in, first out: the probe, registered
    # before main registers gc.freeze, runs after the freeze
    proc = run_process(argv, code=FREEZE_PROBE)
    assert proc.returncode == code
    lines = proc.stdout.strip().splitlines()
    assert lines[-2] == "frozen after main: False"
    assert lines[-1] == "frozen at exit: True"


def test_in_process_main_freezes_nothing_and_registers_once(tmp_path, capsys):
    argv = ["oracle", "--n-qubits", "4", "--beta", "1", "--out", str(tmp_path / "o.json")]
    before = atexit._ncallbacks()
    assert main(argv) == 0
    once = atexit._ncallbacks()
    assert main(argv) == 0
    assert main(argv) == 0
    assert gc.get_freeze_count() == 0
    assert once - before <= 1
    assert atexit._ncallbacks() == once


def test_process_import_generates_no_record_code():
    # the record classes are plain classes: importing the CLI never loads
    # dataclasses, whose decorator compiles generated methods at import
    proc = run_process([], code="import sys, qcoin.cli; print('dataclasses' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
