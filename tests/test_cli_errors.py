"""Every CLI input that ends in an error exit, one row each.

``ERRORS`` holds the inputs that exit 2 (bad input or an infeasible budget) or
3 (a runtime failure) with one ``error: ...`` line and no ``--out`` written;
``USAGE_ERRORS`` holds argparse's usage errors.  A row calls ``main`` in
process, where pyproject's ``filterwarnings = ["error"]`` fails it on any
warning.  The rows in ``IN_A_PROCESS`` and ``USAGE_IN_A_PROCESS`` run
``python -m qcoin.cli`` under ``run_process``'s timeout instead: one row per
exit path, and each row that a broken check would turn into unbounded work.
Each table files its rows by module and test: a row first written in
``test_cli_process.py`` or ``test_experiments_cli.py`` keeps the test, and so
the test id, it had there, and each module binds its tests with ``error_tests``.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qcoin
from qcoin.cli import main
from qcoin.experiments import _FIELDS

SRC = Path(qcoin.__file__).resolve().parents[1]


def run_process(args, *, code=None, cwd=None):
    """Run ``python -m qcoin.cli ARGS`` (or ``python -c CODE ARGS``) with qcoin from SRC."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    head = ["-c", code] if code is not None else ["-m", "qcoin.cli"]
    return subprocess.run([sys.executable, "-W", "error", *head, *args], env=env,
                          cwd=cwd, capture_output=True, text=True, timeout=60)


def series(*rows: str) -> str:
    """A noise-fit depth series: the header, then ``rows``."""
    return "\n".join(["layers,successes,shots", *rows, ""])


def negbin_budget(k, expected: str) -> str:
    return (f"toss budget infeasible: expected tosses = {k} / p = {expected}; numpy's "
            f"int64 negative-binomial draw of the tosses needs k / p <= 2^63 - 1 = "
            f"9223372036854775807 and (1 - p) / p (k + 10 sqrt(k)) <= 9.22337e+18")


def additive_budget(eps_p: str, p: str) -> str:
    return (f"toss budget infeasible: an additive run at precision {eps_p} on a coin "
            f"with p = {p} needs more than _TOSS_BUDGET = 100000000 tosses")


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
SPEC = '{"kind": "ising", "n_qubits": 2, "edges": [[0, 1, 0.5]], "seed": 0}'
SEED_BELOW_ZERO = "field 'seed' must be >= 0"
N_QUBITS_BELOW_1 = "field 'n_qubits' must be >= 1"
N_VISIBLE_BELOW_1 = "field 'n_visible' must be >= 1"
INSTANCES_BELOW_1 = "field 'instances' must be >= 1"
INSTANCES_PAST_CAP = ("field 'instances' must be <= 10000: every instance is built before "
                      "any output is written")
BETAS_BOUND = "field 'betas' must be non-empty, finite and non-negative"
SHOTS_PAST_INT64 = ("field 'shots' must be <= 2^63 - 1 = 9223372036854775807: the shots "
                    "of one row are one int64 binomial draw")
LAYERS_PAST_DEPTHS = ("field 'layers' must be <= 2^63 - 1 - 2 * insertions = "
                      "9223372036854775797: the noise fit's depths layers + 2k are int64")
SCHEDULE_PAST_CAP = ("field 'schedule_sizes' must hold at most 10000 steps in all: each "
                     "step sums over all 2^n eigenvalues")
FIT_BETA_BOUND = "field 'fit_beta' must be positive and finite"
FRAG_EPS_BOUND = "field 'frag_eps' must be in (0, 1]"
QUBIT_CAP = "n_qubits=13 is outside 1..12, the spectrum cap"
N_QUBITS_NOT_QRBM = "field 'n_qubits' does not apply to model 'qrbm'"
N_VISIBLE_NOT_ISING = "field 'n_visible' does not apply to model 'ising'"
SERIES_LINE_3 = "series line 3: expected the integer fields layers,successes,shots"
SERIES_NO_ROWS = "series CSV has no rows after its header"
COIN_BETA_NOT_FINITE = "coin beta must be finite and non-negative, got {} (norm bound {})"
# at coin beta ~2.6e6 the heads probability of this n = 12 instance underflows
COIN_UNDERFLOWS = ("the coin's heads probability underflows to 0 at beta_coin = "
                   "2.6269e+06: no head can be drawn")
DEGREE_PAST_CAP = ("Chebyshev degree of exp(-beta x / 2) at beta = 2.75528e+07 exceeds "
                   "the degree cap 20000")
# 4,000,000 rows, ten times the sweep's row cap: ~5 GB and minutes if the cap failed
SWEEP_400_BETAS = "instances = 10000\nn_qubits = 2\nshots = 10\nbetas = {}\n".format(
    ", ".join(str(k / 100) for k in range(1, 401)))
QRBM_PAST_FLOAT64 = ('{"kind": "qrbm", "n_qubits": 2, "params": {"n_visible": 1, '
                     '"n_hidden": 1, "couplings": [[1e308]], "biases": [1e308, 1e308], '
                     '"transverse_field": [1e308]}, "seed": 0}')
NORM_BOUND_PAST_FLOAT64 = "spec norm bound, the sum of absolute {}, must be finite, got inf"
ALG1_BUDGET_PAST_FLOAT64 = ("toss budget infeasible: 8 z^2 / (eps_r^2 p) at eps_r = {}, "
                            "delta = 0.05 and p = 0.630668 is past float64's range")
ALG2_BUDGET_PAST_FLOAT64 = ("toss budget infeasible: 1 / (delta eps_r^2) at eps_r = {} and "
                            "delta = {} is past float64's range")

# (argv, files, exit code, the one stderr line's message), by module and test;
# each row runs with "--out out" appended, in a directory that holds its files,
# and a test of one row takes no parameters
ERRORS = {"test_cli_errors": {"test_error_exit_is_one_line": [
    pytest.param(["sweep", "--config", "missing.txt"], {}, 2,
                 "[Errno 2] No such file or directory: 'missing.txt'", id="config-missing"),
    # each size within the old per-size cap, 10,001 steps in all
    pytest.param(["fragment", "--config", "cfg.txt"],
                 {"cfg.txt": "schedule_sizes = 5000, 5001\n"}, 2, SCHEDULE_PAST_CAP,
                 id="schedule-sizes-total-past-cap"),
    pytest.param(["noise-fit", "--series", "series.csv"],
                 {"series.csv": series("0,900,1000", "2,890,1000", "4,880,1000")}, 2,
                 "series line 2: layers = 0 must be >= 1", id="series-depth-zero"),
    pytest.param(["noise-fit", "--series", "series.csv"],
                 {"series.csv": series("10,900,1000", "12,890,1000", "12,880,1000")}, 2,
                 "series line 4: layers = 12 must exceed the previous row's 12",
                 id="series-depth-repeated"),
    pytest.param(["oracle", "--spec", "s.json"], {"s.json": "[" * 100_000}, 2,
                 "spec nests deeper than the JSON decoder's recursion limit",
                 id="spec-nested-past-recursion-limit"),
    # each weight finite, their sum not
    pytest.param(["oracle", "--spec", "s.json"],
                 {"s.json": '{"kind": "ising", "n_qubits": 3, "edges": [[0, 1, 1e308], '
                            '[1, 2, 1e308]], "seed": 0}'}, 2,
                 NORM_BOUND_PAST_FLOAT64.format("coupling weights"),
                 id="spec-ising-norm-bound-past-float64"),
    pytest.param(["oracle", "--spec", "s.json"], {"s.json": QRBM_PAST_FLOAT64}, 2,
                 NORM_BOUND_PAST_FLOAT64.format("Pauli coefficients"),
                 id="spec-qrbm-norm-bound-past-float64"),
    # eps_r^2 underflows to 0 (1e-200), or the budget's quotient passes
    # float64 (eps_r 1e-160, delta 1e-320)
    pytest.param(["coverage", "alg1", "--n-qubits", "4", "--eps-r", "1e-200"], {}, 2,
                 ALG1_BUDGET_PAST_FLOAT64.format("1e-200"), id="alg1-eps-r-squared-underflows"),
    pytest.param(["coverage", "alg2", "--n-qubits", "4", "--eps-r", "1e-200"], {}, 2,
                 ALG2_BUDGET_PAST_FLOAT64.format("1e-200", "0.05"),
                 id="alg2-eps-r-squared-underflows"),
    pytest.param(["coverage", "alg1", "--n-qubits", "4", "--eps-r", "1e-160"], {}, 2,
                 ALG1_BUDGET_PAST_FLOAT64.format("1e-160"), id="alg1-sample-count-past-float64"),
    pytest.param(["coverage", "alg2", "--n-qubits", "4", "--delta", "1e-320"], {}, 2,
                 ALG2_BUDGET_PAST_FLOAT64.format("0.2", "9.99989e-321"),
                 id="alg2-success-count-past-float64"),
]}, "test_cli_process": {"test_process_error_exit_is_one_line": [
    pytest.param(["sweep", "--shots", "0"], {}, 2, "field 'shots' must be >= 1",
                 id="input-error"),
    # through FAILING_FIT_PROBE
    pytest.param(["noise-fit", "--series", "series.csv"],
                 {"series.csv": series("10,620,1000", "12,601,1000", "14,590,1000")}, 3,
                 "the noise fit failed", id="runtime-error"),
    *(pytest.param([*command, "--seed", "-1"], {}, 2, SEED_BELOW_ZERO,
                   id=f"{command[0]}-seed-negative")
      for command in (["sweep"], ["coverage", "alg1"], ["fragment"], ["generate"], ["oracle"])),
    pytest.param(["generate", "--model", "qrbm", "--n-qubits", "0"], {}, 2, N_QUBITS_BELOW_1,
                 id="generate-qrbm-n-qubits-0"),
    pytest.param(["oracle", "--model", "qrbm", "--n-qubits", "0"], {}, 2, N_QUBITS_BELOW_1,
                 id="oracle-qrbm-n-qubits-0"),
    pytest.param(["oracle", "--n-hidden", "-3"], {}, 2, "field 'n_hidden' must be >= 1",
                 id="oracle-n-hidden-negative"),
    pytest.param(["sweep", "--instances", "1000000000000"], {}, 2, INSTANCES_PAST_CAP,
                 id="sweep-instances-cap"),
    pytest.param(["generate", "--instances", "1000000000000"], {}, 2, INSTANCES_PAST_CAP,
                 id="generate-instances-cap"),
    *(pytest.param(["sweep", "--n-qubits", "4", "--instances", "1", "--xi", "0.037",
                    "--layers", layers], {}, 2, LAYERS_PAST_DEPTHS, id=row_id)
      for layers, row_id in [("100000000000000000000", "layers-past-python-int64"),
                             ("9223372036854775800", "layers-depths-past-int64")]),
    pytest.param(["sweep", "--config", "cfg.txt", "--xi", "0.037"],
                 {"cfg.txt": "insertions = 100000000000\n"}, 2,
                 "field 'insertions' must be <= 10000: every inserted depth is simulated "
                 "and fitted", id="sweep-insertions-cap"),
    pytest.param(["sweep", "--config", "run.cfg", "--xi", "0.037"],
                 {"run.cfg": "insertions = 1\n"}, 2,
                 "field 'insertions' must be >= 2 when xi is set: the noise fit needs 3 "
                 "depths", id="noisy-insertions-below-two"),
    pytest.param(["fragment", "--config", "cfg.txt"],
                 {"cfg.txt": "schedule_sizes = 1000000000000000\n"}, 2, SCHEDULE_PAST_CAP,
                 id="schedule-size-cap"),
    pytest.param(["fragment", "--config", "run.cfg"], {"run.cfg": "frag_eps = 5\n"}, 2,
                 FRAG_EPS_BOUND, id="frag-eps-above-one"),
    pytest.param(["sweep", "--config", "run.cfg"], {"run.cfg": "n_qubits = four\n"}, 2,
                 "config line 1: field 'n_qubits' must be an integer, got 'four'",
                 id="config-int-not-integer"),
    pytest.param(["sweep", "--config", "run.cfg"], {"run.cfg": "seed = 3\nbetas = 1,,2\n"}, 2,
                 "config line 2: field 'betas' must be a comma-separated list of numbers, "
                 "got '1,,2'", id="config-list-empty-entry"),
    pytest.param(["coverage", "alg1", "--config", "run.cfg"], {"run.cfg": "# noise\nxi =\n"},
                 2, "config line 2: field 'xi' must be a number, got ''",
                 id="config-float-empty"),
    pytest.param(["sweep", "--config", "run.cfg"], {"run.cfg": "seed = 3\n# again\nseed = 4\n"},
                 2, "config line 3: field 'seed' is already set on line 1",
                 id="config-key-set-twice"),
    pytest.param(["sweep", "--n-qubits", "13"], {}, 2, QUBIT_CAP, id="sweep-qubit-cap"),
    pytest.param(["fragment", "--n-qubits", "13"], {}, 2, QUBIT_CAP, id="fragment-qubit-cap"),
    pytest.param(["oracle", "--spec", "s.json"], {"s.json": '{"kind": "ising"}'}, 2,
                 "spec field 'n_qubits' is missing", id="spec-missing-field"),
    pytest.param(["oracle", "--spec", "s.json"],
                 {"s.json": '{"kind": "ising", "n_qubits": 2, "edges": [[0, 1]], "seed": 0}'},
                 2, "spec field 'edges': entry 0 must be [i, j, weight] with integer i, j and "
                 "a finite weight, got [0, 1]", id="spec-short-edge"),
    pytest.param(["oracle", "--spec", "s.json"], {"s.json": "[]"}, 2,
                 "spec must be a JSON object, got list", id="spec-not-object"),
    pytest.param(["noise-fit", "--series", "series.csv"],
                 {"series.csv": series("10,0,0", "12,0,0", "14,0,0")}, 2,
                 "series line 2: shots = 0 must be >= 1", id="series-zero-shots"),
    # depths close together, so within the span cap, but past int64
    pytest.param(["noise-fit", "--series", "series.csv"],
                 {"series.csv": series("100000000000000000000,600,1000",
                                       "100000000000000000002,590,1000",
                                       "100000000000000000004,580,1000")}, 2,
                 "series line 2: layers = 100000000000000000000 exceeds 2^63 - 1",
                 id="series-depth-past-int64"),
    # shots past the config's int64 cap, and past float64 too
    pytest.param(["noise-fit", "--series", "series.csv"],
                 {"series.csv": series(*(f"{d},5,1{'0' * 400}" for d in (10, 12, 14)))}, 2,
                 "series line 2: shots must be <= 2^63 - 1", id="series-shots-past-int64"),
    pytest.param(["noise-fit", "--series", "series.csv"], {"series.csv": series()}, 2,
                 SERIES_NO_ROWS, id="series-header-only"),
    *(pytest.param(["noise-fit", "--series", "series.csv"],
                   {"series.csv": series("10,900,1000", row, "14,860,1000")}, 2,
                   SERIES_LINE_3, id=row_id)
      for row, row_id in [("12,880", "series-row-short"), ("12,880,1000,7", "series-row-long"),
                          ("12,8.8e2,1000", "series-cell-not-integer")]),
    # the fitted curve would have 10^12 rows, one per layer of the span
    pytest.param(["noise-fit", "--series", "series.csv"],
                 {"series.csv": series("1,900,1000", "2,890,1000", "1000000000000,500,1000")},
                 2, "series depths must span at most 100000 layers: the fitted curve has one "
                 "row per layer", id="series-span-cap"),
    pytest.param(["fragment", "--config", "cfg.txt", "--beta", "0"],
                 {"cfg.txt": "frag_successes = 10000000000000000000\n"}, 2,
                 negbin_budget(10000000000000000000, "1e+19"),
                 id="fragment-successes-past-int64"),
    pytest.param(["coverage", "iterative", "--n-qubits", "4", "--eps-r", "1e-300"], {}, 2,
                 additive_budget("5e-301", "0.630668"), id="iterative-precision-past-budget"),
    pytest.param(["coverage", "alg1", "--n-qubits", "4", "--beta", "1e7"], {}, 2,
                 DEGREE_PAST_CAP, id="alg1-degree-past-cap"),
    pytest.param(["fragment", "--n-qubits", "4", "--beta", "1e7"], {}, 2, DEGREE_PAST_CAP,
                 id="fragment-degree-past-cap"),
    pytest.param(["sweep", "--config", "run.cfg"], {"run.cfg": SWEEP_400_BETAS}, 2,
                 "a sweep's rows, instances x len(betas) = 10000 x 400 = 4000000, must be <= "
                 "400000: the sweep holds every row in memory", id="sweep-rows-cap"),
    # --beta 1e308 times the instance's norm bound (~2.76) is inf
    *(pytest.param([*command, "--n-qubits", "4", "--beta", "1e308"], {}, 2,
                   COIN_BETA_NOT_FINITE.format("inf", "2.755284851558489"),
                   id=f"{command[-1]}-coin-beta-past-float64")
      for command in (["sweep"], ["coverage", "alg1"], ["coverage", "alg2"],
                      ["coverage", "iterative"], ["fragment"])),
], "test_process_oracle_spec_rejects_the_flags_it_replaces": [
    # each value is the flag's default, so only an explicit flag is rejected
    pytest.param(["oracle", "--spec", "s.json", flag, value], {"s.json": SPEC}, 2,
                 f"--spec gives the instance, so {flag} cannot be given with it",
                 id=f"{flag}-{value}")
    for flag, value in [("--model", "ising"), ("--n-qubits", "4"), ("--n-visible", "2"),
                        ("--n-hidden", "2"), ("--seed", "0")]
]}, "test_experiments_cli": {"test_cli_input_error_is_one_line_and_writes_nothing": [
    pytest.param(["sweep", "--config", "run.cfg"], {"run.cfg": "model = bogus\n"}, 2,
                 "field 'model' must be ising or qrbm, got 'bogus'", id="config-model-unknown"),
    pytest.param(["generate", "--model", "qrbm", "--n-visible", "0"], {}, 2,
                 N_VISIBLE_BELOW_1, id="qrbm-n-visible-zero"),
    pytest.param(["generate", "--instances", "0"], {}, 2, INSTANCES_BELOW_1,
                 id="instances-zero"),
    pytest.param(["sweep", "--beta", "0.5,-1"], {}, 2, BETAS_BOUND, id="betas-negative"),
    pytest.param(["sweep", "--shots", "10000000000000000000"], {}, 2, SHOTS_PAST_INT64,
                 id="shots-past-int64"),
    pytest.param(["coverage", "alg2", "--delta", "1"], {}, 2, "field 'delta' must be in (0, 1)",
                 id="delta-one"),
    pytest.param(["coverage", "alg1", "--eps-r", "1.5"], {}, 2,
                 "field 'eps_r' must be in (0, 1)", id="eps-r-above-one"),
    pytest.param(["sweep", "--xi", "2"], {}, 2, "field 'xi' must be in [0, 1]",
                 id="xi-above-one"),
    pytest.param(["sweep", "--layers", "0"], {}, 2, "field 'layers' must be >= 1",
                 id="layers-zero"),
    pytest.param(["sweep", "--xi", "0.037", "--layers", "9223372036854775800"], {}, 2,
                 LAYERS_PAST_DEPTHS, id="layers-depths-past-int64"),
    pytest.param(["sweep", "--config", "run.cfg"], {"run.cfg": "insertions = -1\n"}, 2,
                 "field 'insertions' must be >= 0", id="config-insertions-negative"),
    pytest.param(["sweep", "--config", "run.cfg"], {"run.cfg": "fit_beta = 0\n"}, 2,
                 FIT_BETA_BOUND, id="config-fit-beta-zero"),
    pytest.param(["coverage", "alg1", "--reps", "0"], {}, 2, "field 'reps' must be >= 1",
                 id="reps-zero"),
    # one past the cap, so that a broken cap costs one run of ~0.5 s
    pytest.param(["coverage", "alg1", "--reps", "1000001"], {}, 2,
                 "field 'reps' must be <= 1000000: a coverage command holds every "
                 "repetition in memory", id="reps-past-cap"),
    pytest.param(["fragment", "--config", "run.cfg"], {"run.cfg": "schedule_sizes = 0,2\n"},
                 2, "field 'schedule_sizes' must contain positive sizes",
                 id="schedule-size-zero"),
    pytest.param(["fragment", "--config", "run.cfg"], {"run.cfg": "frag_successes = 0\n"},
                 2, "field 'frag_successes' must be >= 1", id="config-frag-successes-zero"),
    pytest.param(["sweep", "--config", "run.cfg"], {"run.cfg": b"seed = 3\n\xff\n"}, 2,
                 "'utf-8' codec can't decode byte 0xff in position 9: invalid start byte",
                 id="config-not-utf8"),
    pytest.param(["oracle", "--spec", "s.json", "--n-qubits", "9", "--seed", "5"],
                 {"s.json": SPEC}, 2,
                 "--spec gives the instance, so --n-qubits --seed cannot be given with it",
                 id="oracle-spec-with-instance-flags"),
    pytest.param(["noise-fit", "--series", "s.csv"], {"s.csv": series()}, 2, SERIES_NO_ROWS,
                 id="series-header-only"),
    pytest.param(["noise-fit", "--series", "s.csv"],
                 {"s.csv": series("10,900,1000", "12,880,999", "14,860,1000")}, 2,
                 "all series rows must use the same shot count", id="series-two-shot-counts"),
    pytest.param(["noise-fit", "--series", "s.csv"], {"s.csv": series("10,900,1000", "12,0,0")},
                 2, "series line 3: shots = 0 must be >= 1", id="series-zero-shots"),
    pytest.param(["noise-fit", "--series", "s.csv"], {"s.csv": series("10,1001,1000")}, 2,
                 "series line 2: successes 1001 outside [0, 1000]",
                 id="series-successes-past-shots"),
], "test_cli_generate_rejects_counts_below_minimum": [
    pytest.param(["generate", "--n-qubits", "0"], {}, 2, N_QUBITS_BELOW_1, id="n-qubits-0"),
    pytest.param(["generate", "--n-qubits", "1"], {}, 2,
                 "need n_qubits >= 2 to build a connected-degree graph", id="n-qubits-1"),
    pytest.param(["generate", "--model", "qrbm", "--n-visible", "0"], {}, 2,
                 N_VISIBLE_BELOW_1, id="qrbm-n-visible-0"),
    pytest.param(["generate", "--instances", "0"], {}, 2, INSTANCES_BELOW_1, id="instances-0"),
    pytest.param(["generate", "--instances", "-1"], {}, 2, INSTANCES_BELOW_1,
                 id="instances-negative"),
], "test_cli_other_models_instance_count_is_input_error": [
    pytest.param(["generate", "--model", "qrbm", "--n-qubits", "9"], {}, 2, N_QUBITS_NOT_QRBM,
                 id="generate-qrbm-n-qubits"),
    pytest.param(["oracle", "--model", "ising", "--n-visible", "7"], {}, 2, N_VISIBLE_NOT_ISING,
                 id="oracle-ising-n-visible"),
    pytest.param(["sweep", "--model", "qrbm", "--n-qubits", "6"], {}, 2, N_QUBITS_NOT_QRBM,
                 id="sweep-qrbm-n-qubits"),
    pytest.param(["fragment", "--config", "cfg.txt"], {"cfg.txt": "n_visible = 3\n"}, 2,
                 N_VISIBLE_NOT_ISING, id="config-ising-n-visible"),
], "test_cli_non_finite_float_is_input_error": [
    *(pytest.param(["oracle", "--beta", value], {}, 2,
                   COIN_BETA_NOT_FINITE.format(value, "4.58183277002191"), id=f"oracle-{value}")
      for value in ("nan", "inf")),
    pytest.param(["sweep", "--n-qubits", "4", "--beta", "0.5,inf"], {}, 2, BETAS_BOUND,
                 id="sweep-inf"),
    pytest.param(["coverage", "alg1", "--beta", "nan"], {}, 2, BETAS_BOUND, id="coverage-nan"),
    pytest.param(["fragment", "--beta", "nan"], {}, 2, BETAS_BOUND, id="fragment-nan"),
    *(pytest.param([command, "--config", "cfg.txt"], {"cfg.txt": f"{field} = {value}\n"}, 2,
                   words, id=f"{field.replace('_', '-')}-{value}")
      for command, field, words in [("sweep", "fit_beta", FIT_BETA_BOUND),
                                    ("fragment", "frag_eps", FRAG_EPS_BOUND)]
      for value in ("nan", "inf")),
], "test_cli_fragment_infeasible_probability_is_input_error": [
    # Ising n = 10 at beta 20: p_full ~ 1e-34, ~2e37 expected attempts
    pytest.param(["fragment", "--n-qubits", "10", "--beta", "20"], {}, 2,
                 negbin_budget(2000, "1.96148e+37"), id="fragment-infeasible-probability"),
], "test_cli_toss_count_past_int64_is_input_error": [
    # numpy's int64 draws count at most 2^63 - 1 tosses
    pytest.param(["coverage", "alg1", "--n-qubits", "12", "--beta", "8"], {}, 2,
                 "toss budget infeasible: count = 983649944454901919991776411648 exceeds "
                 "2^63 - 1 = 9223372036854775807, the most tosses one binomial draw takes",
                 id="coverage-alg1"),
    pytest.param(["sweep", "--n-qubits", "4", "--shots", "10000000000000000000"], {}, 2,
                 SHOTS_PAST_INT64, id="sweep"),
    pytest.param(["sweep", "--n-qubits", "4", "--shots", "10000000000000000000", "--xi",
                  "0.037"], {}, 2, SHOTS_PAST_INT64, id="sweep-noise"),
    # alg2's expected tosses 500 / p: 7.3e20 (p = 6.9e-19), then 1.8e95,
    # where the coin beta also passes float64's exp limit
    pytest.param(["coverage", "alg2", "--n-qubits", "8", "--seed", "3", "--beta", "8",
                  "--reps", "3"], {}, 2, negbin_budget(500, "7.29885e+20"), id="coverage-alg2"),
    pytest.param(["coverage", "alg2", "--n-qubits", "12", "--beta", "30", "--reps", "3"], {},
                 2, negbin_budget(500, "1.7589e+95"), id="coverage-alg2-past-exp"),
], "test_cli_underflowed_coin_is_one_input_error": [
    pytest.param([*command, "--n-qubits", "12", "--beta", "1e5"], {}, 2, COIN_UNDERFLOWS,
                 id=command[-1])
    for command in (["coverage", "alg1"], ["coverage", "alg2"], ["coverage", "iterative"],
                    ["fragment"])
], "test_cli_additive_runner_budget_is_input_error": [
    # Ising n = 8 at beta 12: the halving rounds reach an additive precision
    # that needs more than the runner's toss budget
    pytest.param(["coverage", "iterative", "--n-qubits", "8", "--beta", "12", "--reps", "1"],
                 {}, 2, additive_budget("1.91e-07", "7.66322e-07"), id="additive-runner-budget"),
], "test_cli_iterative_precision_past_the_toss_budget_is_input_error": [
    # eps_r / 2 squared underflows (1e-300) or its reciprocal overflows
    # (1e-160): refused before any draw
    pytest.param(["coverage", "iterative", "--n-qubits", "4", "--eps-r", eps_r], {}, 2,
                 additive_budget(eps_p, "0.630668"), id=eps_r)
    for eps_r, eps_p in [("1e-300", "5e-301"), ("1e-160", "5e-161")]
], "test_cli_noise_fit_degenerate_is_input_error": [
    pytest.param(["noise-fit", "--series", "flat.csv"],
                 {"flat.csv": series("10,500,1000", "12,500,1000", "14,500,1000")}, 2,
                 "all points sit at the depolarizing fixed point 0.5", id="noise-fit-degenerate"),
]}}
# one plain exit-2 row, the exit-3 probe and each row that a broken check would
# turn into unbounded work; test_process_matches_in_process_main shows that a
# process and an in-process call agree
IN_A_PROCESS = {
    "input-error", "runtime-error", "schedule-size-cap", "sweep-instances-cap",
    "generate-instances-cap", "series-span-cap", "sweep-insertions-cap",
    "fragment-successes-past-int64", "alg1-degree-past-cap", "fragment-degree-past-cap",
    "iterative-precision-past-budget", "sweep-rows-cap",
}


def check_error_exit(tmp_path, capsys, monkeypatch, row_id, argv, files, code, message):
    monkeypatch.chdir(tmp_path)
    for name, data in files.items():
        (tmp_path / name).write_bytes(data if isinstance(data, bytes) else data.encode())
    argv = [*argv, "--out", "out"]
    if row_id in IN_A_PROCESS:
        proc = run_process(argv, cwd=tmp_path, code=FAILING_FIT_PROBE if code == 3 else None)
        returncode, stderr = proc.returncode, proc.stderr
    else:
        returncode, stderr = main(argv), capsys.readouterr().err
    assert returncode == code
    assert stderr == f"error: {message}\n"  # one line, no traceback
    assert not (tmp_path / "out").exists()  # a failed command writes nothing


def error_exit_test(rows):
    """The test that runs ``rows``."""
    if len(rows) == 1:
        def test(tmp_path, capsys, monkeypatch):
            check_error_exit(tmp_path, capsys, monkeypatch, rows[0].id, *rows[0].values)
        return test

    @pytest.mark.parametrize("argv, files, code, message", rows)
    def test(tmp_path, capsys, monkeypatch, request, argv, files, code, message):
        check_error_exit(tmp_path, capsys, monkeypatch, request.node.callspec.id, argv, files,
                         code, message)
    return test


def test_error_rows_pin_every_field_bound():
    # every bound of a _FIELDS row is the whole message of some row
    bounds = {(name, words) for name, (_, _, *tests) in _FIELDS.items()
              for _, words in tests}
    pinned = set()
    for row in [row for tests in ERRORS.values() for rows in tests.values() for row in rows]:
        said = re.fullmatch(r"field '(\w+)' must (.+)", row.values[3])
        pinned |= {(name, words) for name, words in bounds if said and name == said[1]
                   and re.fullmatch(re.escape(words).replace(re.escape("{!r}"), "'.+'"),
                                    said[2])}
    assert sorted(bounds - pinned) == []


# the config flags that each config command's runner does not read
DROPPED_FLAGS = [(command, flag) for command, flags in [
    (["sweep"], "--eps-r --reps"),
    (["coverage", "alg1"], "--shots --xi --layers --instances"),
    (["fragment"], "--shots --eps-r --delta --xi --layers --instances --reps"),
] for flag in flags.split()]
# (argv, the last stderr line), by module and test; each row runs with "--out
# out" appended, and its first stderr line is the subcommand's usage
USAGE_ERRORS = {"test_cli_process": {"test_process_malformed_beta_names_the_list": [
    pytest.param([*command, "--beta", ","],
                 f"qcoin {command[0]}: error: argument --beta: expected a comma-separated "
                 "list of numbers, got ','", id=f"command{i}")
    for i, command in enumerate([["sweep", "--n-qubits", "4"], ["oracle"]])
], "test_process_unknown_flag_is_reported_by_its_subcommand": [
    pytest.param(["coverage", "alg1", "--n-qubits", "4", "--shots", "5"],
                 "qcoin coverage: error: unrecognized arguments: --shots 5",
                 id="dropped-config-flag"),
    pytest.param(["oracle", "--bogus"], "qcoin oracle: error: unrecognized arguments: --bogus",
                 id="unknown-flag"),
    pytest.param(["noise-fit", "--series", "s.csv", "--xi", "0.1"],
                 "qcoin noise-fit: error: unrecognized arguments: --xi 0.1",
                 id="config-flag-on-noise-fit"),
]}, "test_experiments_cli": {"test_cli_config_command_rejects_a_flag_it_does_not_read": [
    pytest.param([*command, "--n-qubits", "4", flag, "3"],
                 f"qcoin {command[0]}: error: unrecognized arguments: {flag} 3",
                 id=f"command{i}-{flag}")
    for i, (command, flag) in enumerate(DROPPED_FLAGS)
]}}
USAGE_IN_A_PROCESS = "unknown-flag"  # argparse's SystemExit, in a real process


def usage_error_test(rows):
    """The test that runs the usage-error ``rows``."""
    @pytest.mark.parametrize("argv, last_line", rows)
    def test(tmp_path, capsys, monkeypatch, request, argv, last_line):
        monkeypatch.chdir(tmp_path)
        argv = [*argv, "--out", "out"]
        if request.node.callspec.id == USAGE_IN_A_PROCESS:
            proc = run_process(argv, cwd=tmp_path)
            returncode, stderr = proc.returncode, proc.stderr
        else:
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            returncode, stderr = exit_info.value.code, capsys.readouterr().err
        assert returncode == 2
        lines = stderr.splitlines()
        assert lines[0].startswith(f"usage: qcoin {argv[0]} [-h] ")
        assert lines[-1] == last_line
        assert not any(tmp_path.iterdir())
    return test


def error_tests(module: str) -> dict:
    """The tests that run the rows ERRORS and USAGE_ERRORS file under ``module``."""
    return {**{name: error_exit_test(rows) for name, rows in ERRORS[module].items()},
            **{name: usage_error_test(rows)
               for name, rows in USAGE_ERRORS.get(module, {}).items()}}


globals().update(error_tests("test_cli_errors"))
