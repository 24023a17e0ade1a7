"""Property test: every `oracle` and `sweep` input ends in an answer or exit 2.

Inputs range over both models up to 8 qubits, betas up to 1.4e3 (coin betas
far past float64's exp range) and shot counts up to 1e19 (past the 2^63 - 1
a binomial draw takes).  A command must exit 0 with every written number
finite, or exit 2 with one stderr line and nothing written; no exception may
escape ``main``.  Only the values float64 cannot hold may be empty or null:
the z cells of ``sweep.csv``, and ``z_beta``, ``mean_trials`` and
``free_energy`` (also None at beta = 0) of an oracle report.

The examples are derandomized and no example database is kept, so the test
is deterministic and writes nothing outside its temporary directories.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from qcoin.cli import main

SETTINGS = settings(database=None, derandomize=True, deadline=None, max_examples=200)
TEXT_COLUMNS = {"model", "instance", "config_hash"}
Z_COLUMNS = {"z_exact", "z_hat", "z_mitigated"}
NOISE_COLUMNS = {"noisy_successes", "p_noisy_hat", "p_noisy_sigma", "p_mitigated",
                 "p_mitigated_sigma", "mitigation_clamped"}
NULLABLE_REPORT_FIELDS = {"z_beta", "mean_trials", "free_energy"}


@st.composite
def instances(draw):
    """Model sizes up to 8 qubits; an Ising instance on one qubit is invalid (exit 2)."""
    if draw(st.sampled_from(["ising", "qrbm"])) == "ising":
        return {"model": "ising", "n_qubits": draw(st.integers(1, 8))}
    n_visible = draw(st.integers(1, 7))
    return {"model": "qrbm", "n_visible": n_visible,
            "n_hidden": draw(st.integers(1, 8 - n_visible))}


betas = st.lists(st.floats(0.0, 1.4e3), min_size=1, max_size=3)
seeds = st.integers(0, 1000)


def run(argv):
    """main(argv) with its stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _reject_constant(name):
    raise AssertionError(f"{name} written as a number")


def assert_exit_2_or_written(code, err, target):
    assert code in (0, 2)
    if code == 2:
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
        assert not target.exists()
        return False
    assert err == ""
    return True


@SETTINGS
@given(instance=instances(), beta=betas, seed=seeds)
def test_oracle_writes_finite_values_or_exits_2(instance, beta, seed):
    argv = ["oracle", "--model", instance["model"], "--seed", str(seed),
            "--beta", ",".join(repr(b) for b in beta)]
    for key in ("n_qubits", "n_visible", "n_hidden"):
        if key in instance:
            argv += [f"--{key.replace('_', '-')}", str(instance[key])]
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / "oracle.json"
        code, _, err = run([*argv, "--out", str(target)])
        if not assert_exit_2_or_written(code, err, target):
            return
        doc = json.loads(target.read_text(), parse_constant=_reject_constant)
    for report in doc["reports"]:
        for key, value in report.items():
            if value is None:
                assert key in NULLABLE_REPORT_FIELDS, key
            else:
                assert math.isfinite(value), (key, value)


@SETTINGS
@given(instance=instances(), beta=betas, seed=seeds,
       shots=st.integers(1, 10**19))
def test_sweep_writes_finite_values_or_exits_2(instance, beta, seed, shots):
    config = dict(instance, betas=",".join(repr(b) for b in beta), shots=shots,
                  seed=seed, instances=1)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "sweep.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in config.items()))
        target = Path(tmp) / "out"
        code, _, err = run(["sweep", "--config", str(cfg), "--out", str(target)])
        if not assert_exit_2_or_written(code, err, target):
            return
        json.loads((target / "sweep_summary.json").read_text(),
                   parse_constant=_reject_constant)
        lines = (target / "sweep.csv").read_text().splitlines()
    header = lines[0].split(",")
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        for key, value in row.items():
            if key in TEXT_COLUMNS:
                continue
            if value == "":
                assert row["instance"] == "mean" or key in Z_COLUMNS | NOISE_COLUMNS, key
            else:
                assert math.isfinite(float(value)), (key, value)
