"""The CLI across a real process boundary: ``python -m qcoin.cli`` in a subprocess.

``main`` pauses the cyclic collector for the command and registers
``gc.freeze`` with ``atexit``, so a CLI process makes no collector pass after
its import.  These tests check that a process still exits with the right
code, prints the same lines and writes the same files as an in-process call,
that nothing is frozen before the process exits, and that an in-process
caller gets its collector back as it had it.  The error-exit table runs in
a subprocess only the cases that need one; the rest call ``main`` in
process.  A well-formed command line is
parsed from the option table without argparse; the last tests check that
parse against argparse's on the same lines.
"""

import atexit
import contextlib
import gc
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import qcoin
from qcoin.cli import _COMMANDS, _parse_direct, build_parser, main
from series_file import write_layer_series

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
SERIES_FIVE_SHOTS = (
    "layers,successes,shots\n3,4,5\n48,3,5\n86,2,5\n119,1,5\n152,5,5\n"
)
# no input is known to make the noise fit fail, so exit 3 comes from a fit
# that raises, put in place before main runs
FAILING_FIT_PROBE = """
import sys
import qcoin.experiments
def fit_noise_model(series):
    raise RuntimeError("the noise fit failed")
qcoin.experiments.fit_noise_model = fit_noise_model
from qcoin.cli import main
sys.exit(main(sys.argv[1:]))
"""
# the fitted curve would have 10^12 rows, one per layer of the span
SERIES_WIDE_SPAN = "layers,successes,shots\n1,900,1000\n2,890,1000\n1000000000000,500,1000\n"
# --beta 1e308 times the instance's norm bound (~2.76) is inf
COIN_BETA_PAST_FLOAT64 = ("coin beta must be finite and non-negative, got inf "
                          "(norm bound 2.755284851558489)")
# depths close together, so within the span cap, but past int64
SERIES_PAST_INT64 = ("layers,successes,shots\n100000000000000000000,600,1000\n"
                     "100000000000000000002,590,1000\n100000000000000000004,580,1000\n")
# shots past the config's int64 cap, and past float64 too
SERIES_SHOTS_PAST_INT64 = "layers,successes,shots\n10,5,1{0}\n12,5,1{0}\n14,5,1{0}\n".format(
    "0" * 400)
SERIES_LINE_3 = "series line 3: expected the integer fields layers,successes,shots"
SEED_BELOW_ZERO = "field 'seed' must be >= 0"
DEGREE_PAST_CAP = ("Chebyshev degree of exp(-beta x / 2) at beta = 2.75528e+07 exceeds "
                   "the degree cap 20000")
INSTANCES_PAST_CAP = ("field 'instances' must be <= 10000: every instance is built before "
                      "any output is written")
# 4,000,000 rows, ten times the sweep's row cap: ~5 GB and minutes if the cap failed
SWEEP_400_BETAS = "instances = 10000\nn_qubits = 2\nshots = 10\nbetas = {}\n".format(
    ", ".join(str(k / 100) for k in range(1, 401)))
LAYERS_PAST_DEPTHS = ("field 'layers' must be <= 2^63 - 1 - 2 * insertions = "
                      "9223372036854775797: the noise fit's depths layers + 2k are int64")
# (argv, files, exit code, the one stderr line's message)
ERROR_EXITS = [
    (["sweep", "--shots", "0"], {}, 2, "field 'shots' must be >= 1"),
    (["noise-fit", "--series", "series.csv"], {"series.csv": SERIES_FIVE_SHOTS},
     3, "the noise fit failed"),  # through FAILING_FIT_PROBE
    (["oracle", "--spec", "s.json"], {"s.json": '{"kind": "ising"}'}, 2,
     "spec field 'n_qubits' is missing"),
    (["oracle", "--spec", "s.json"],
     {"s.json": '{"kind": "ising", "n_qubits": 2, "edges": [[0, 1]], "seed": 0}'}, 2,
     "spec field 'edges': entry 0 must be [i, j, weight] with integer i, j and a finite "
     "weight, got [0, 1]"),
    (["oracle", "--spec", "s.json"], {"s.json": "[]"}, 2,
     "spec must be a JSON object, got list"),
    (["noise-fit", "--series", "series.csv"], {"series.csv": SERIES_ZERO_SHOTS}, 2,
     "series line 2: shots = 0 must be >= 1"),
    (["fragment", "--config", "cfg.txt"],
     {"cfg.txt": "schedule_sizes = 1000000000000000\n"}, 2,
     "field 'schedule_sizes' must hold sizes <= 10000: each step sums over all 2^n "
     "eigenvalues"),
    (["sweep", "--instances", "1000000000000"], {}, 2, INSTANCES_PAST_CAP),
    (["generate", "--instances", "1000000000000"], {}, 2, INSTANCES_PAST_CAP),
    (["sweep", "--n-qubits", "13"], {}, 2, "n_qubits=13 is outside 1..12, the spectrum cap"),
    (["fragment", "--n-qubits", "13"], {}, 2,
     "n_qubits=13 is outside 1..12, the spectrum cap"),
    (["noise-fit", "--series", "series.csv"], {"series.csv": SERIES_WIDE_SPAN}, 2,
     "series depths must span at most 100000 layers: the fitted curve has one row per "
     "layer"),
    (["sweep", "--config", "cfg.txt", "--xi", "0.037"],
     {"cfg.txt": "insertions = 100000000000\n"}, 2,
     "field 'insertions' must be <= 10000: every inserted depth is simulated and fitted"),
    (["fragment", "--config", "cfg.txt", "--beta", "0"],
     {"cfg.txt": "frag_successes = 10000000000000000000\n"}, 2,
     "toss budget infeasible: expected tosses = 10000000000000000000 / p = 1e+19; "
     "numpy's int64 negative-binomial draw of the tosses needs k / p <= 2^63 - 1 = "
     "9223372036854775807 and (1 - p) / p (k + 10 sqrt(k)) <= 9.22337e+18"),
    (["noise-fit", "--series", "series.csv"], {"series.csv": SERIES_PAST_INT64}, 2,
     "series line 2: layers = 100000000000000000000 exceeds 2^63 - 1"),
    (["noise-fit", "--series", "series.csv"], {"series.csv": "layers,successes,shots\n"},
     2, "series CSV has no rows after its header"),
    (["sweep", "--n-qubits", "4", "--beta", "1e308"], {}, 2, COIN_BETA_PAST_FLOAT64),
    (["coverage", "alg1", "--n-qubits", "4", "--beta", "1e308"], {}, 2,
     COIN_BETA_PAST_FLOAT64),
    (["coverage", "alg2", "--n-qubits", "4", "--beta", "1e308"], {}, 2,
     COIN_BETA_PAST_FLOAT64),
    (["coverage", "iterative", "--n-qubits", "4", "--beta", "1e308"], {}, 2,
     COIN_BETA_PAST_FLOAT64),
    (["fragment", "--n-qubits", "4", "--beta", "1e308"], {}, 2, COIN_BETA_PAST_FLOAT64),
    (["sweep", "--n-qubits", "4", "--instances", "1", "--xi", "0.037",
      "--layers", "100000000000000000000"], {}, 2, LAYERS_PAST_DEPTHS),
    (["sweep", "--n-qubits", "4", "--instances", "1", "--xi", "0.037",
      "--layers", "9223372036854775800"], {}, 2, LAYERS_PAST_DEPTHS),
    (["coverage", "alg1", "--n-qubits", "4", "--beta", "1e7"], {}, 2, DEGREE_PAST_CAP),
    (["fragment", "--n-qubits", "4", "--beta", "1e7"], {}, 2, DEGREE_PAST_CAP),
    (["coverage", "iterative", "--n-qubits", "4", "--eps-r", "1e-300"], {}, 2,
     "toss budget infeasible: an additive run at precision 5e-301 on a coin with "
     "p = 0.630668 needs more than _TOSS_BUDGET = 100000000 tosses"),
    (["sweep", "--seed", "-1"], {}, 2, SEED_BELOW_ZERO),
    (["coverage", "alg1", "--seed", "-1"], {}, 2, SEED_BELOW_ZERO),
    (["fragment", "--seed", "-1"], {}, 2, SEED_BELOW_ZERO),
    (["generate", "--seed", "-1"], {}, 2, SEED_BELOW_ZERO),
    (["oracle", "--seed", "-1"], {}, 2, SEED_BELOW_ZERO),
    (["noise-fit", "--series", "series.csv"],
     {"series.csv": "layers,successes,shots\n10,900,1000\n12,880\n14,860,1000\n"},
     2, SERIES_LINE_3),
    (["noise-fit", "--series", "series.csv"],
     {"series.csv": "layers,successes,shots\n10,900,1000\n12,880,1000,7\n14,860,1000\n"},
     2, SERIES_LINE_3),
    (["noise-fit", "--series", "series.csv"],
     {"series.csv": "layers,successes,shots\n10,900,1000\n12,8.8e2,1000\n14,860,1000\n"},
     2, SERIES_LINE_3),
    (["sweep", "--config", "run.cfg"], {"run.cfg": "n_qubits = four\n"}, 2,
     "config line 1: field 'n_qubits' must be an integer, got 'four'"),
    (["sweep", "--config", "run.cfg"], {"run.cfg": "seed = 3\nbetas = 1,,2\n"}, 2,
     "config line 2: field 'betas' must be a comma-separated list of numbers, got '1,,2'"),
    (["coverage", "alg1", "--config", "run.cfg"], {"run.cfg": "# noise\nxi =\n"}, 2,
     "config line 2: field 'xi' must be a number, got ''"),
    (["fragment", "--config", "run.cfg"], {"run.cfg": "frag_eps = 5\n"}, 2,
     "field 'frag_eps' must be in (0, 1]"),
    (["sweep", "--config", "run.cfg", "--xi", "0.037"], {"run.cfg": "insertions = 1\n"},
     2, "field 'insertions' must be >= 2 when xi is set: the noise fit needs 3 depths"),
    (["noise-fit", "--series", "series.csv"], {"series.csv": SERIES_SHOTS_PAST_INT64}, 2,
     "series line 2: shots must be <= 2^63 - 1"),
    (["sweep", "--config", "run.cfg"], {"run.cfg": "seed = 3\n# again\nseed = 4\n"}, 2,
     "config line 3: field 'seed' is already set on line 1"),
    (["generate", "--model", "qrbm", "--n-qubits", "0"], {}, 2,
     "field 'n_qubits' must be >= 1"),
    (["oracle", "--model", "qrbm", "--n-qubits", "0"], {}, 2,
     "field 'n_qubits' must be >= 1"),
    (["oracle", "--n-hidden", "-3"], {}, 2, "field 'n_hidden' must be >= 1"),
    (["sweep", "--config", "run.cfg"], {"run.cfg": SWEEP_400_BETAS}, 2,
     "a sweep's rows, instances x len(betas) = 10000 x 400 = 4000000, must be <= "
     "400000: the sweep holds every row in memory"),
]
ERROR_EXIT_IDS = [
    "input-error", "runtime-error", "spec-missing-field", "spec-short-edge",
    "spec-not-object", "series-zero-shots", "schedule-size-cap",
    "sweep-instances-cap", "generate-instances-cap", "sweep-qubit-cap",
    "fragment-qubit-cap", "series-span-cap", "sweep-insertions-cap",
    "fragment-successes-past-int64", "series-depth-past-int64",
    "series-header-only", "sweep-coin-beta-past-float64",
    "alg1-coin-beta-past-float64", "alg2-coin-beta-past-float64",
    "iterative-coin-beta-past-float64", "fragment-coin-beta-past-float64",
    "layers-past-python-int64", "layers-depths-past-int64",
    "alg1-degree-past-cap", "fragment-degree-past-cap",
    "iterative-precision-past-budget", "sweep-seed-negative",
    "coverage-seed-negative", "fragment-seed-negative", "generate-seed-negative",
    "oracle-seed-negative", "series-row-short", "series-row-long",
    "series-cell-not-integer", "config-int-not-integer",
    "config-list-empty-entry", "config-float-empty", "frag-eps-above-one",
    "noisy-insertions-below-two", "series-shots-past-int64", "config-key-set-twice",
    "generate-qrbm-n-qubits-0", "oracle-qrbm-n-qubits-0", "oracle-n-hidden-negative",
    "sweep-rows-cap",
]
# a fresh interpreter, under run_process's timeout, for one plain exit-2 case,
# the exit-3 probe and each case that a broken check would turn into
# unbounded work; the others call main in process, which
# test_process_matches_in_process_main shows a process agrees with
IN_A_PROCESS = {
    "input-error", "runtime-error", "schedule-size-cap", "sweep-instances-cap",
    "generate-instances-cap", "series-span-cap", "sweep-insertions-cap",
    "fragment-successes-past-int64", "alg1-degree-past-cap", "fragment-degree-past-cap",
    "iterative-precision-past-budget", "sweep-rows-cap",
}


@pytest.mark.parametrize("argv, files, code, message", ERROR_EXITS, ids=ERROR_EXIT_IDS)
def test_process_error_exit_is_one_line(tmp_path, capsys, monkeypatch, request, argv,
                                        files, code, message):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [*argv, "--out", str(tmp_path / "out")]
    if request.node.callspec.id in IN_A_PROCESS:
        proc = run_process(argv, cwd=tmp_path,
                           code=FAILING_FIT_PROBE if code == 3 else None)
        returncode, stderr = proc.returncode, proc.stderr
    else:
        monkeypatch.chdir(tmp_path)
        returncode, stderr = main(argv), capsys.readouterr().err
    assert returncode == code
    assert stderr == f"error: {message}\n"  # one line, no traceback
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


@pytest.mark.parametrize("command", [["sweep", "--n-qubits", "4"], ["oracle"]])
def test_process_malformed_beta_names_the_list(tmp_path, command):
    proc = run_process([*command, "--beta", ",", "--out", "s"], cwd=tmp_path)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert lines[0].startswith(f"usage: qcoin {command[0]}")
    assert lines[-1] == (f"qcoin {command[0]}: error: argument --beta: expected a "
                         "comma-separated list of numbers, got ','")
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("flag, value", [
    ("--model", "ising"), ("--n-qubits", "4"), ("--n-visible", "2"), ("--n-hidden", "2"),
    ("--seed", "0"),
])
def test_process_oracle_spec_rejects_the_flags_it_replaces(tmp_path, flag, value):
    # each value is the flag's default, so only an explicit flag is rejected
    (tmp_path / "s.json").write_text(
        '{"kind": "ising", "n_qubits": 2, "edges": [[0, 1, 0.5]], "seed": 0}')
    proc = run_process(["oracle", "--spec", "s.json", flag, value, "--out", "o.json"],
                       cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stderr == (f"error: --spec gives the instance, so {flag} cannot be "
                           "given with it\n")
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("argv, unknown", [
    (["coverage", "alg1", "--n-qubits", "4", "--shots", "5", "--out", "cov"], "--shots 5"),
    (["oracle", "--bogus", "--out", "o.json"], "--bogus"),
    (["noise-fit", "--series", "s.csv", "--xi", "0.1", "--out", "fit"], "--xi 0.1"),
], ids=["dropped-config-flag", "unknown-flag", "config-flag-on-noise-fit"])
def test_process_unknown_flag_is_reported_by_its_subcommand(tmp_path, argv, unknown):
    proc = run_process(argv, cwd=tmp_path)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert lines[0].startswith(f"usage: qcoin {argv[0]} ")
    assert lines[-1] == f"qcoin {argv[0]}: error: unrecognized arguments: {unknown}"
    assert not any(tmp_path.iterdir())
