"""The CLI across a real process boundary: ``python -m qcoin.cli`` in a subprocess.

``main`` pauses the cyclic collector for the command and registers
``gc.freeze`` with ``atexit``, so a CLI process makes no collector pass after
its import.  These tests check that a process exits with the same code,
prints the same lines and writes the same files as an in-process call, that
nothing is frozen before the process exits, that an in-process caller gets
its collector back as it had it, and what a process imports.  Its error-exit
tests run rows of ``tests/test_cli_errors.py``'s tables.  A well-formed
command line is parsed from the option table without argparse; the last tests
check that parse against argparse's on the same lines.
"""

import atexit
import contextlib
import gc
import io
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qcoin.cli import _COMMANDS, _parse_direct, build_parser, main
from series_file import write_layer_series
from test_cli_errors import error_tests, run_process


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


# the error exits that test_cli_errors.py files under this module's tests
globals().update(error_tests("test_cli_process"))
SERIES_FIVE_SHOTS = (
    "layers,successes,shots\n3,4,5\n48,3,5\n86,2,5\n119,1,5\n152,5,5\n"
)


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


# runs the module as python -m does, so its __main__ block is part of the probe;
# passes are counted from the entry's gc.disable, the first call to it, so the
# second run of the module body before it is not counted
COLLECTION_PROBE = """
import atexit, gc, runpy, sys
import qcoin.cli
del sys.modules["qcoin.cli"]  # runpy warns when the module it runs is already imported
starts, entered, disable = [], [], gc.disable
def entry_disable():
    entered.append(True)
    disable()
gc.disable = entry_disable
gc.callbacks.append(lambda phase, info: phase == "start" and entered and starts.append(info))
atexit.register(lambda: print("collections:", len(starts)))
runpy.run_module("qcoin.cli", run_name="__main__")
"""
# calls the entry as the console-script wrapper of the installed qcoin does
SCRIPT_PROBE = """
import atexit, gc, re, sys
from qcoin.cli import entry
gc.collect()
starts = []
gc.callbacks.append(lambda phase, info: phase == "start" and starts.append(info))
atexit.register(lambda: print("collections:", len(starts)))
if __name__ == "__main__":
    sys.argv[0] = re.sub(r"(-script\\.pyw|\\.exe)?$", "", sys.argv[0])
    sys.exit(entry())
"""


@pytest.mark.parametrize("probe, argv, code", [
    (COLLECTION_PROBE, ["oracle", "--n-qubits", "4", "--beta", "1"], 0),
    (COLLECTION_PROBE, ["coverage", "alg1", "--n-qubits", "4", "--beta", "1", "--reps",
                        "20", "--out", "cov"], 0),
    (COLLECTION_PROBE, ["sweep"], 2),  # argparse: --out is required
    (SCRIPT_PROBE, ["coverage", "alg1", "--n-qubits", "4", "--beta", "1", "--reps",
                    "20", "--out", "cov"], 0),
], ids=["oracle", "coverage", "argparse-error", "script-entry"])
def test_process_makes_no_collection_from_main_to_exit(tmp_path, probe, argv, code):
    proc = run_process(argv, code=probe, cwd=tmp_path)
    assert proc.returncode == code, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "collections: 0"


@pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("argv, code", [
    (["oracle", "--n-qubits", "4", "--beta", "1"], 0),
    (["sweep", "--shots", "0", "--out", "out"], 2),
    (["noise-fit", "--series", "series.csv", "--out", "out"], 3),
    (["sweep"], None),  # argparse raises SystemExit: --out is required
], ids=["exit-0", "exit-2", "exit-3", "argparse-exit"])
def test_in_process_main_puts_the_collector_back(tmp_path, monkeypatch, argv, code,
                                                 collecting):
    (tmp_path / "series.csv").write_text(SERIES_FIVE_SHOTS)
    monkeypatch.chdir(tmp_path)
    if code == 3:  # no input is known to make the noise fit fail
        def fit_noise_model(series):
            raise RuntimeError("the noise fit failed")

        monkeypatch.setattr("qcoin.experiments.fit_noise_model", fit_noise_model)
    starts = []

    def callback(phase, info):  # counts the passes that start while main runs
        frame = sys._getframe()
        while frame is not None and frame.f_code is not main.__code__:
            frame = frame.f_back
        if frame is not None:
            starts.append(phase)

    was_enabled = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    gc.callbacks.append(callback)
    try:
        if code is None:
            with pytest.raises(SystemExit):
                main(argv)
        else:
            assert main(argv) == code
        assert gc.isenabled() is collecting
    finally:
        gc.callbacks.remove(callback)
        (gc.enable if was_enabled else gc.disable)()
    assert starts == []  # no collector pass while the command ran


# one argument list per subcommand, each with options of its own
PARSER_ARGVS = {
    "generate": ["generate", "--model", "qrbm", "--instances", "2", "--out", "specs"],
    "oracle": ["oracle", "--spec", "s.json", "--beta", "0.5,2"],
    "sweep": ["sweep", "--xi", "0.037", "--beta", "1,2", "--out", "sweep"],
    "coverage": ["coverage", "alg2", "--reps", "3", "--seed", "5", "--out", "cov"],
    "noise-fit": ["noise-fit", "--series", "series.csv", "--out", "fit"],
    "fragment": ["fragment", "--config", "cfg.txt", "--out", "frag"],
}


@pytest.mark.parametrize("command", PARSER_ARGVS)
def test_one_command_parser_matches_the_full_parser(capsys, command):
    full = build_parser()
    argv = PARSER_ARGVS[command]
    direct = _parse_direct(argv)
    assert direct is not None and vars(direct) == vars(full.parse_args(argv))
    with pytest.raises(SystemExit):
        full.parse_args([command, "--help"])
    help_text = capsys.readouterr().out
    assert f"usage: qcoin {command}" in help_text
    assert all(opt.flag in help_text for opt in _COMMANDS[command][2])
    assert set(PARSER_ARGVS) == set(full._subparsers._group_actions[0].choices)


def good_values(opt):
    """Values the option's type and choices accept."""
    if opt.choices is not None:
        return list(opt.choices)
    if opt.type is int:
        return ["0", "3", "12"]
    if opt.type is float:
        return ["0.5", "1e-3"]
    if opt.flag == "--beta":
        return ["1", "0.5,2"]
    return ["out", "x=y", "a b", ""]


# values a type or choice rejects, or argparse reads as a flag or as no value
BAD_VALUES = ["-1", "-x", "--", ",", "1,,2", "nan", "1.5", "abc", "="]
STRAYS = ["-h", "--help", "--bogus", "stray", "alg1", "alg9", "bogus", "--"]


@st.composite
def command_lines(draw):
    """Argument lists built from the option table, well-formed or nearly so."""
    command = draw(st.sampled_from(list(_COMMANDS)))
    _, positional, options, _ = _COMMANDS[command]
    pieces = []
    for opt in options:
        # most of the time each required flag, a quarter of the time each other one
        if draw(st.integers(0, 9)) > 0 if opt.required else draw(st.integers(0, 3)) == 0:
            value = draw(st.sampled_from(good_values(opt) + BAD_VALUES
                                         if draw(st.integers(0, 5)) == 0
                                         else good_values(opt)))
            pieces.append([opt.flag, value])
    pieces = draw(st.permutations(pieces))
    tokens = [token for piece in pieces for token in piece]
    if positional is not None:
        tokens.insert(0, draw(st.sampled_from([*positional[1], "alg9"])))
    for _ in range(draw(st.integers(0, 2))):  # malformed pieces, anywhere
        opt = draw(st.sampled_from(options))
        value = draw(st.sampled_from(good_values(opt) + BAD_VALUES))
        piece = draw(st.sampled_from([
            [f"{opt.flag}={value}"],                                      # = form
            [opt.flag[:draw(st.integers(3, len(opt.flag) - 1))], value],  # abbreviation
            [opt.flag, value],                               # repeat, or a bad value
            [draw(st.sampled_from(STRAYS))],                 # help, stray token
        ]))
        at = draw(st.integers(0, len(tokens)))
        tokens[at:at] = piece
    return [draw(st.sampled_from([command, command, command, "bogus", "-h"])), *tokens]


@pytest.mark.parametrize("argv", [
    ["coverage", "alg1", "--out=cov"],
    ["coverage", "alg1", "--n-q", "4", "--out", "cov"],
    ["coverage", "--n-qubits", "4", "alg1", "--out", "cov"],
    ["coverage", "alg1", "--seed", "3", "--seed", "5", "--out", "cov"],
    ["coverage", "alg1", "--seed", "-1", "--out", "cov"],
    ["sweep", "--out", "s", "-h"],
    ["sweep", "--beta", ",", "--out", "s"],
    ["sweep"],
    ["oracle", "--n-qubits"],
    [],
], ids=["equals-form", "abbreviation", "positional-late", "repeated-flag",
        "dash-value", "help", "bad-value", "required-missing", "no-value", "empty"])
def test_direct_parse_leaves_unusual_syntax_to_argparse(argv):
    assert _parse_direct(argv) is None


@settings(database=None, derandomize=True, deadline=None, max_examples=400)
@given(argv=command_lines())
def test_direct_parse_matches_argparse_or_defers(argv):
    direct = _parse_direct(argv)
    if direct is None:
        return
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        parsed = build_parser().parse_args(argv)  # SystemExit fails the test
    assert vars(direct) == vars(parsed)


# argparse serves only malformed lines and help; numpy.random (~6 ms to
# import) only the commands that draw; input files decode as plain UTF-8, so
# reading one never imports the utf-8-sig codec (~0.4 ms)
MODULES_PROBE = """
import sys
import qcoin.cli
loaded = lambda: sorted({"argparse", "gettext", "locale", "numpy.random",
                         "encodings.utf_8_sig"} & set(sys.modules))
print("after import:", loaded())
code = qcoin.cli.main(sys.argv[1:])
print("after main:", loaded())
sys.exit(code)
"""


def test_process_well_formed_command_imports_no_argparse(tmp_path):
    argv = ["coverage", "alg1", "--n-qubits", "4", "--beta", "1", "--reps", "20",
            "--out", "cov"]
    proc = run_process(argv, code=MODULES_PROBE, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "after import: []"
    assert proc.stdout.splitlines()[-1] == "after main: ['numpy.random']"


def test_process_noise_fit_imports_no_numpy_random(tmp_path):
    write_layer_series(tmp_path / "s.csv", [10, 12, 14, 16, 18],
                       [620, 601, 590, 575, 566], 1000)
    proc = run_process(["noise-fit", "--series", "s.csv", "--out", "fit"],
                       code=MODULES_PROBE, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "after import: []"
    assert proc.stdout.splitlines()[-1] == "after main: []"


def test_process_fragment_config_imports_no_utf_8_sig_codec(tmp_path):
    (tmp_path / "run.cfg").write_text("schedule_sizes = 1,2\nfrag_successes = 20\n")
    proc = run_process(["fragment", "--config", "run.cfg", "--n-qubits", "4", "--out",
                        "frag"], code=MODULES_PROBE, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "after import: []"
    assert proc.stdout.splitlines()[-1] == "after main: ['numpy.random']"
