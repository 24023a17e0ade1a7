import ast
import importlib.util
import json
import math
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from qcoin.cli import _COMMANDS, _CONFIG_OPTIONS, main
from qcoin.experiments import (
    MODELS,
    SCHEMA_VERSION,
    ExperimentConfig,
    config_hash,
    learn_noise_model,
    load_config,
    parse_config,
    read_layer_series,
    run_coverage,
    run_fragment,
    run_generate,
    run_noise_fit,
    run_oracle,
    run_sweep,
)
from qcoin.coin import (
    SeedStream,
    expected_queries_per_success,
    fragmented_query_bound,
    toss,
    uniform_schedule,
)
import qcoin
from qcoin.hamiltonian import (
    generate_random_ising_graph,
    generate_random_qrbm,
    spec_from_json,
    unit_spectrum,
)
from qcoin.noise import (
    fit_noise_model, identity_insertion_depths, noisy_success_probability,
)
from qcoin.oracle import ideal_coin_probability, log_partition_function
from qcoin.propagator import required_degree

from noise_reference import rss_bound
from series_file import write_layer_series

SMALL_CFG = """
# minimal sweep configuration
model = ising
n_qubits = 4
instances = 2
betas = 0.2, 1.0
shots = 400
delta = 0.05
eps_r = 0.2
seed = 9
"""


def read_rows(path):
    lines = Path(path).read_text().strip().splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_parse_config_grammar():
    values = parse_config(SMALL_CFG)
    assert values["model"] == "ising"
    assert values["betas"] == (0.2, 1.0)
    assert values["shots"] == 400
    with pytest.raises(ValueError):
        parse_config("bogus_key = 1")
    with pytest.raises(ValueError):
        parse_config("model ising")


def test_load_config_overrides_and_validation(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text(SMALL_CFG)
    config = load_config(path, shots=1000, xi=0.05)
    assert config.shots == 1000
    assert config.xi == 0.05
    assert config.betas == (0.2, 1.0)
    with pytest.raises(ValueError):
        load_config(path, model="bogus")
    with pytest.raises(ValueError):
        load_config(path, delta=2.0)
    with pytest.raises(ValueError):
        load_config(path, betas=(-1.0,))
    with pytest.raises(ValueError, match="reps"):
        load_config(path, reps=1_000_001)
    assert load_config(path, seed=0).seed == 0
    with pytest.raises(ValueError, match="field 'seed' must be >= 0"):
        load_config(path, seed=-1)
    # the size caps hold before anything is built
    assert load_config(path, instances=10_000, schedule_sizes=(10_000,)).instances == 10_000
    with pytest.raises(ValueError, match="field 'instances' must be <= 10000"):
        load_config(path, instances=10_001)
    with pytest.raises(ValueError, match="field 'schedule_sizes' must hold sizes <= 10000"):
        load_config(path, schedule_sizes=(1, 10**15))
    # frag_eps is a schedule's total error budget
    assert load_config(path, frag_eps=1.0).frag_eps == 1.0
    for frag_eps in (1.5, 1e300):
        with pytest.raises(ValueError, match=r"field 'frag_eps' must be in \(0, 1\]"):
            load_config(path, frag_eps=frag_eps)
    # the noise fit needs 3 depths, layers + 2k for k = 0..insertions
    assert load_config(path, insertions=0).insertions == 0
    assert load_config(path, xi=0.037, insertions=2).insertions == 2
    for insertions in (0, 1):
        with pytest.raises(ValueError, match="field 'insertions' must be >= 2 when xi"):
            load_config(path, xi=0.037, insertions=insertions)
    # a field is set once: a second line for it names both lines
    path.write_text(SMALL_CFG + "n_qubits = 5\n")
    with pytest.raises(ValueError, match=re.escape(
            "config line 11: field 'n_qubits' is already set on line 4")):
        load_config(path)


BOM = b"\xef\xbb\xbf"  # UTF-8 byte-order mark: Windows editors and Excel write one


def test_load_config_reads_a_file_with_a_byte_order_mark(tmp_path):
    text = b"model = qrbm\nn_visible = 3\nseed = 4\n"
    plain, marked = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
    plain.write_bytes(text)
    marked.write_bytes(BOM + text)
    assert load_config(marked) == load_config(plain)
    assert load_config(marked).model == "qrbm"


def test_config_hash_stability():
    a = ExperimentConfig(seed=1)
    b = ExperimentConfig(seed=1)
    c = ExperimentConfig(seed=2)
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)


def test_seed_stream_deterministic():
    a = SeedStream(5)
    b = SeedStream(5)
    seq_a = [a.next() for _ in range(4)]
    seq_b = [b.next() for _ in range(4)]
    assert seq_a == seq_b
    assert len(set(seq_a)) == 4


def test_run_sweep_structure_and_determinism(tmp_path):
    config = ExperimentConfig(
        model="ising", n_qubits=4, instances=2, betas=(0.2, 1.0), shots=400,
        xi=0.037, layers=10, seed=9,
    )
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    summary = run_sweep(config, out_a)
    run_sweep(config, out_b)
    assert (out_a / "sweep.csv").read_bytes() == (out_b / "sweep.csv").read_bytes()
    assert (out_a / "sweep_summary.json").read_bytes() == (
        out_b / "sweep_summary.json"
    ).read_bytes()

    header, rows = read_rows(out_a / "sweep.csv")
    instance_rows = [r for r in rows if r["instance"] != "mean"]
    mean_rows = [r for r in rows if r["instance"] == "mean"]
    assert len(instance_rows) == 4  # instances x betas
    assert len(mean_rows) == 2
    for row in instance_rows:
        assert row["config_hash"] == summary["config_hash"]
        assert row["instance_seed"] != ""
        p_exact = float(row["p_exact"])
        z_exact = float(row["z_exact"])
        beta_coin = float(row["beta_coin"])
        assert p_exact * math.exp(beta_coin) * 16 == pytest.approx(z_exact, rel=1e-12)
        assert 0.0 <= float(row["p_mitigated"]) <= 1.0
    assert summary["noise_fit"] is not None


def test_run_sweep_large_shots_tightens_to_exact(tmp_path):
    config = ExperimentConfig(
        model="ising", n_qubits=4, instances=2, betas=(0.5, 2.0),
        shots=1_000_000, xi=None, seed=6,
    )
    run_sweep(config, tmp_path)
    _, rows = read_rows(tmp_path / "sweep.csv")
    for row in rows:
        if row["instance"] == "mean":
            continue
        p_exact = float(row["p_exact"])
        p_hat = float(row["p_hat"])
        assert abs(p_hat - p_exact) <= 4.0 * math.sqrt(p_exact / 1_000_000)


def test_run_sweep_noiseless_has_empty_noise_columns(tmp_path):
    config = ExperimentConfig(
        model="qrbm", n_visible=2, n_hidden=2, instances=1, betas=(0.5,),
        shots=200, xi=None, seed=4,
    )
    run_sweep(config, tmp_path)
    _, rows = read_rows(tmp_path / "sweep.csv")
    assert rows[0]["p_noisy_hat"] == ""
    assert rows[0]["p_mitigated"] == ""


def test_run_coverage_alg1_and_alg2(tmp_path):
    config = ExperimentConfig(
        model="ising", n_qubits=4, instances=1, betas=(1.0,), reps=60,
        eps_r=0.2, delta=0.05, seed=3,
    )
    report = run_coverage(config, "alg1", tmp_path)
    assert report["coverage"] >= 0.9
    assert report["theory"]["sample_count"] == report["mean_samples"]

    config2 = ExperimentConfig(
        model="ising", n_qubits=4, instances=1, betas=(1.0,), reps=60,
        eps_r=0.2, delta=0.25, seed=3,
    )
    report2 = run_coverage(config2, "alg2", tmp_path)
    assert report2["coverage"] >= 0.7
    assert report2["theory"]["success_count"] == 100
    with pytest.raises(ValueError):
        run_coverage(config, "alg3", tmp_path)


def test_run_coverage_iterative_rounds(tmp_path):
    config = ExperimentConfig(
        model="ising", n_qubits=3, instances=1, betas=(2.0,), reps=40,
        eps_r=0.2, delta=0.1, seed=17,
    )
    report = run_coverage(config, "iterative", tmp_path)
    assert report["coverage"] >= 0.9
    predicted = math.log2(report["theory"]["z_max"] / report["z_exact"])
    assert abs(report["rounds"]["median"] - predicted) <= 2.0


@pytest.mark.parametrize("reps", [10, 400])
@pytest.mark.parametrize("algorithm", ["alg1", "alg2", "iterative"])
def test_run_coverage_seeds_one_generator_per_command(tmp_path, monkeypatch, algorithm,
                                                        reps):
    # the instance's generator, then one generator for every repetition,
    # seeded from the stream's next seed
    seeded = []
    default_rng = np.random.default_rng

    def counting_rng(seed=None):
        seeded.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    config = ExperimentConfig(
        model="ising", n_qubits=4, instances=1, betas=(2.0,), reps=reps,
        eps_r=0.2, delta=0.1, seed=17,
    )
    run_coverage(config, algorithm, tmp_path)
    stream = SeedStream(17)
    assert seeded == [stream.next(), stream.next()]


def test_layer_series_csv_round_trip(tmp_path):
    depths = identity_insertion_depths(10, 5)
    successes = [toss(noisy_success_probability(0.38, 0.037, d), 3000, 50 + d)
                 for d in depths]
    path = tmp_path / "series.csv"
    write_layer_series(path, depths, successes, 3000)
    series = read_layer_series(path)
    assert list(series.depths) == depths
    assert series.shots_per_point == 3000
    assert np.allclose(series.measured_p, np.array(successes) / 3000)
    bad = tmp_path / "bad.csv"
    bad.write_text("depth,heads\n10,5\n")
    with pytest.raises(ValueError):
        read_layer_series(bad)
    bad.write_text("layers,successes,shots\n10,0,0\n12,0,0\n")
    with pytest.raises(ValueError, match="shots = 0 must be >= 1"):
        read_layer_series(bad)
    # a malformed row is named by its line in the file, blank lines included
    bad.write_text("\n\nlayers,successes,shots\n10,900,1000\n\n12,880\n")
    with pytest.raises(ValueError, match="^series line 6: expected the integer fields"):
        read_layer_series(bad)


def test_run_noise_fit_outputs(tmp_path):
    depths = identity_insertion_depths(10, 5)
    rng = np.random.default_rng(8)
    from qcoin.noise import noisy_success_probability

    successes = [
        int(rng.binomial(3000, noisy_success_probability(0.38, 0.037, d)))
        for d in depths
    ]
    series_path = tmp_path / "series.csv"
    write_layer_series(series_path, depths, successes, 3000)
    report = run_noise_fit(series_path, tmp_path)
    assert set(report) >= {"xi", "xi_sigma", "p_hat", "p_sigma", "residual"}
    assert (tmp_path / "noise_fit.json").exists()
    header, rows = read_rows(tmp_path / "noise_fit_curve.csv")
    assert header == ["layers", "fitted_p", "band_sigma"]
    assert len(rows) == depths[-1] - depths[0] + 1
    assert all(float(r["band_sigma"]) >= 0 for r in rows)
    # the curve against the forward map and its gradient, one depth at a time
    fit = fit_noise_model(read_layer_series(series_path))
    xi, p_hat = fit.xi, fit.p_hat
    for row in rows:
        depth = int(row["layers"])
        grad = np.array([-depth * (1.0 - xi) ** (depth - 1) * (p_hat - 0.5),
                         (1.0 - xi) ** depth])
        band = math.sqrt(grad @ fit.covariance @ grad)
        assert float(row["fitted_p"]) == pytest.approx(
            noisy_success_probability(p_hat, xi, depth), rel=1e-12)
        assert float(row["band_sigma"]) == pytest.approx(band, rel=1e-12)


def test_noise_fit_reads_a_series_with_a_byte_order_mark(tmp_path):
    plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
    write_layer_series(plain, [10, 12, 14, 16, 18], [620, 601, 590, 575, 566], 1000)
    marked.write_bytes(BOM + plain.read_bytes())
    run_noise_fit(plain, tmp_path / "plain")
    run_noise_fit(marked, tmp_path / "bom")
    for name in ("noise_fit.json", "noise_fit_curve.csv"):
        assert (tmp_path / "bom" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


def test_run_noise_fit_exact_series(tmp_path):
    from qcoin.noise import noisy_success_probability

    depths = identity_insertion_depths(10, 5)
    shots = 10**12  # integer successes quantize p at 1e-12: series is exact
    successes = [
        int(round(noisy_success_probability(0.38, 0.037, d) * shots)) for d in depths
    ]
    series_path = tmp_path / "series.csv"
    write_layer_series(series_path, depths, successes, shots)
    report = run_noise_fit(series_path, tmp_path)
    assert report["residual"] < 1e-10
    assert report["xi"] == pytest.approx(0.037, abs=1e-7)


def test_run_noise_fit_needs_three_points(tmp_path):
    series_path = tmp_path / "short.csv"
    write_layer_series(series_path, [10, 12], [1200, 1180], 3000)
    with pytest.raises(ValueError):
        run_noise_fit(series_path, tmp_path)


def test_run_fragment_outputs(tmp_path):
    config = ExperimentConfig(
        model="ising", n_qubits=4, instances=1, betas=(1.0,), seed=5,
        schedule_sizes=(1, 2, 4), frag_successes=300,
    )
    run_fragment(config, tmp_path)
    header, rows = read_rows(tmp_path / "fragment.csv")
    assert [r["l"] for r in rows] == ["1", "2", "4"]
    for row in rows:
        assert float(row["product_rel_err"]) <= 1e-12
        # the geometric-sum bound holds for the uniform schedules used here
        assert float(row["empirical_queries_per_success"]) <= 1.1 * float(
            row["query_bound_any_schedule"]
        )
        assert float(row["expected_queries_per_success"]) <= float(
            row["query_bound_any_schedule"]
        ) * (1.0 + 1e-12)
        assert row["instance_seed"] != "" and row["config_hash"] != ""


def test_run_fragment_sums_each_schedule_point_once(tmp_path, monkeypatch):
    # the Boltzmann sum is the only spectral reduction: p_full takes one,
    # and each schedule of l steps takes l + 1, one per breakpoint, shared
    # by its sampler and its two cost columns
    calls = []
    original = qcoin.oracle.boltzmann_sum

    def counting(spectrum, beta):
        calls.append(beta)
        return original(spectrum, beta)

    monkeypatch.setattr(qcoin.oracle, "boltzmann_sum", counting)
    sizes = (1, 2, 4, 8)
    config = ExperimentConfig(model="ising", n_qubits=4, betas=(1.0,), seed=5,
                              schedule_sizes=sizes, frag_successes=300)
    run_fragment(config, tmp_path)
    assert len(calls) == 1 + sum(l + 1 for l in sizes)


@pytest.mark.parametrize("model, n, beta, sizes", [
    ("ising", 4, 0.2, (1, 2, 4, 8)),
    ("ising", 8, 0.9, (1, 2, 4, 8)),
    ("qrbm", 4, 0.2, (1, 2, 4, 8)),
    ("ising", 4, 3.7, (3, 5, 7)),
], ids=["ising4", "ising8-beta0.9", "qrbm", "ising4-beta3.7-odd-sizes"])
def test_run_fragment_certifies_one_degree_per_schedule_size(tmp_path, monkeypatch,
                                                             model, n, beta, sizes):
    # a uniform schedule's steps share one nominal width, so each size takes
    # one certification, whatever widths np.linspace rounds to
    calls = []

    def counting(step_beta, eps_prime):
        calls.append(step_beta)
        return required_degree(step_beta, eps_prime)

    monkeypatch.setattr(qcoin.coin, "required_degree", counting)
    config = ExperimentConfig(model=model, n_qubits=n, betas=(beta,), seed=0,
                              schedule_sizes=sizes, frag_successes=300)
    run_fragment(config, tmp_path)
    assert len(calls) == len(sizes)


def test_run_coverage_sums_the_spectrum_twice(tmp_path, monkeypatch):
    # a coverage command reads its coin from two Boltzmann sums, one for the
    # heads probability p and one for log Z; the estimators take p and the
    # per-toss cost, and never read the spectrum
    calls = []
    original = qcoin.oracle.boltzmann_sum

    def counting(spectrum, beta):
        calls.append(beta)
        return original(spectrum, beta)

    monkeypatch.setattr(qcoin.oracle, "boltzmann_sum", counting)
    config = ExperimentConfig(model="ising", n_qubits=4, betas=(1.0,), reps=20, seed=5)
    for algorithm in ("alg1", "alg2", "iterative"):
        calls.clear()
        run_coverage(config, algorithm, tmp_path)
        assert len(calls) == 2 and calls[0] == calls[1], algorithm


DENSE_OR_DELETED_NAMES = {
    "Hamiltonian", "build_ising", "build_qrbm", "build_hamiltonian",
    "PropagatorExact", "exact_propagator", "apply_approximant", "_clenshaw_matrix",
    "exact_free_energy", "geometric_stats",
    "ChebyshevApproximant", "chebyshev_coefficients", "_clenshaw", "success_probability",
    "_shifted_mean", "CoinSpec", "OracleReport", "NoiseModel",
    "propagate_uncertainty", "simulate_noisy_tosses", "_step_probability",
}


def test_each_decision_has_one_module():
    # the noise extrapolation acts on a heads probability and draws nothing
    # (the sweep draws its noisy shots with coin.toss), and only the oracle
    # prices the coin from the spectrum that hamiltonian builds
    package = Path(qcoin.__file__).parent
    tree = ast.parse((package / "noise.py").read_text(encoding="utf-8"))
    imported = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level > 0}
    imported |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names if alias.name.startswith("qcoin")}
    assert imported == {"record"}
    readers = {path.name for path in package.glob("*.py")
               if "spectrum.values" in path.read_text(encoding="utf-8")}
    assert readers <= {"hamiltonian.py", "oracle.py"} and "oracle.py" in readers
    # the config alone holds each command parameter's default and rule: the
    # CLI gives no instance or seed flag a default, builds no config itself,
    # and spells no model or algorithm name
    instance_flags = {"--model", "--n-qubits", "--n-visible", "--n-hidden", "--seed"}
    defaulted = [(command, opt.flag) for command, (_, _, options, _) in _COMMANDS.items()
                 for opt in options if opt.flag in instance_flags and opt.default is not None]
    assert defaulted == []
    cli = ast.parse((package / "cli.py").read_text(encoding="utf-8"))
    assert not [node.lineno for node in ast.walk(cli) if isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "ExperimentConfig"]
    assert not [node.lineno for node in ast.walk(cli) if isinstance(node, ast.Constant)
                and node.value in ("ising", "qrbm", "alg1", "alg2", "iterative")]
    # experiments composes every command: the CLI parses, calls one runner
    # and prints, so it knows no seed protocol, builder or file format
    assert {node.module for node in ast.walk(cli) if isinstance(node, ast.ImportFrom)
            and node.level > 0} == {"experiments", "record"}
    # a record checks and keeps what its builder computed: no constructor
    # prices a coin
    for path in package.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        from_oracle = {alias.asname or alias.name for node in ast.walk(tree)
                       if isinstance(node, ast.ImportFrom) and node.module == "oracle"
                       for alias in node.names}
        inits = [(cls.name, item) for cls in tree.body if isinstance(cls, ast.ClassDef)
                 for item in cls.body
                 if isinstance(item, ast.FunctionDef) and item.name == "__init__"]
        for name, init in inits:
            calls = {node.func.id for node in ast.walk(init)
                     if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
            assert not calls & from_oracle, (path.name, name)


@pytest.mark.parametrize(
    "model", [["--model", "ising", "--n-qubits", "4"], ["--model", "qrbm"]],
    ids=["ising", "qrbm"],
)
def test_run_sweep_decomposes_each_instance_at_most_once(
    tmp_path, capsys, monkeypatch, model
):
    # The package holds one path from instance to answer: every command reads
    # the unit spectrum built from the instance parameters.  The dense matrix
    # and its eigenvectors are the tests' oracle (tests/dense_oracle.py) alone.
    for module in (qcoin, qcoin.hamiltonian, qcoin.propagator, qcoin.oracle,
                   qcoin.coin, qcoin.estimators, qcoin.noise, qcoin.experiments,
                   qcoin.cli):
        assert not DENSE_OR_DELETED_NAMES & set(vars(module))
    for path in Path(qcoin.__file__).parent.glob("*.py"):
        assert "dense_oracle" not in path.read_text(encoding="utf-8")
    calls = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)
        monkeypatch.setattr(
            np.linalg, name,
            lambda m, _name=name, _f=original: calls.append(_name) or _f(m),
        )
    series = tmp_path / "series.csv"
    write_layer_series(series, [10, 12, 14, 16, 18], [620, 601, 590, 575, 566], 1000)
    common = [*model, "--beta", "0.5,2.0", "--seed", "5"]
    commands = [
        ["generate", *model],
        ["oracle", *common],
        ["sweep", *common, "--xi", "0.037", "--shots", "200"],
        *(["coverage", alg, *common, "--reps", "5"]
          for alg in ("alg1", "alg2", "iterative")),
        ["fragment", *common],
        ["noise-fit", "--series", str(series)],
    ]
    for i, argv in enumerate(commands):
        assert main([*argv, "--out", str(tmp_path / f"out{i}")]) == 0
    assert calls == []


REPO = Path(__file__).resolve().parent.parent
TEST_ONLY_ALLOWED = {
    # no caller outside the tests yet: ROADMAP item 5 (cost each toss at the
    # paper's eps' budget) gives it one
    "propagator.eps_prime_for_relative_error",
    # the sampler's per-step execution counts, through which the tests check
    # its per-step law and its queries total; no command writes them
    "coin.FragmentedRun.step_executions",
}
# public methods and properties named like a member of another package class,
# so the name scan cannot tell their readers apart; each is read in the package
SHARED_NAMES = {
    # hamiltonian.unit_spectrum: _check_qubit_count(spec.n_qubits) on a QrbmSpec
    "QrbmSpec.n_qubits",
    # hamiltonian.unit_spectrum: lam = spec.norm_bound or 1.0, for either spec
    "IsingSpec.norm_bound",
    "QrbmSpec.norm_bound",
    # experiments.run_generate: _instance_spec(...).to_json(), either spec
    "IsingSpec.to_json",
    "QrbmSpec.to_json",
}


def _package_definitions(tree):
    """(qualified name, name, node, is_field) of each top-level function and
    class, of each public method and property of a top-level class, and of
    each name in a top-level class's ``fields``, whose node is the class's
    ``__init__``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node, False
        if isinstance(node, ast.ClassDef):
            init = next((item for item in node.body if isinstance(item, ast.FunctionDef)
                         and item.name == "__init__"), node)
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item, False
                elif isinstance(item, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id == "fields" for t in item.targets):
                    for const in ast.walk(item.value):
                        if isinstance(const, ast.Constant):
                            yield f"{node.name}.{const.value}", const.value, init, True


def _references(tree, by_string):
    """(name, line, is_variable) of each name read, attribute, and with
    ``by_string`` each string constant, the way perfbench's tables name what
    they wrap; ``is_variable`` marks a bare name read."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno, True
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, False
        elif (by_string and isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            yield node.value, node.lineno, False


def _shared_member_names(trees):
    """``Class.name`` of each public method and property of a top-level class
    whose name is also a field, method or property of another such class."""
    members: dict[str, set[str]] = {}
    methods = []
    for tree in trees.values():
        for node in tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            names = members.setdefault(node.name, set())
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    names.add(item.name)
                    if not item.name.startswith("_"):
                        methods.append((node.name, item.name))
                elif isinstance(item, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id in ("fields", "__slots__")
                        for t in item.targets):
                    names.update(c.value for c in ast.walk(item.value)
                                 if isinstance(c, ast.Constant))
    return [f"{cls}.{name}" for cls, name in methods
            if any(name in names for other, names in members.items() if other != cls)]


def test_every_package_name_has_a_caller_outside_the_tests():
    # The package holds only what a command, tool or benchmark runs; the
    # tests' reference code lives in tests/.  Names are matched by name
    # alone, so a method counts as called wherever any attribute of its
    # name is read; a method or property whose name another class's member
    # shares is therefore listed in SHARED_NAMES with a reader of its own.
    # A record keeps only what someone reads: each name in its ``fields``
    # must be read as an attribute outside its constructor (a method of the
    # record counts, as the scan checks that method's callers in turn), or
    # named by a tool or benchmark.  A variable of that name is no reader.
    package = Path(qcoin.__file__).parent
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    callers: dict[str, list[tuple[Path, int, bool]]] = {}
    for path, tree in trees.items():
        for name, line, is_variable in _references(tree, by_string=False):
            callers.setdefault(name, []).append((path, line, is_variable))
    for path in [*REPO.glob("tools/*.py"), *REPO.glob("perfbench/*.py")]:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, line, is_variable in _references(tree, by_string=True):
            callers.setdefault(name, []).append((path, line, is_variable))
    test_only = []
    for path, tree in trees.items():
        for qualname, name, node, is_field in _package_definitions(tree):
            outside = [c for c in callers.get(name, [])
                       if not (c[0] == path and node.lineno <= c[1] <= node.end_lineno)
                       and not (is_field and c[2])]
            if not outside:
                test_only.append(f"{path.stem}.{qualname}")
    assert sorted(test_only) == sorted(TEST_ONLY_ALLOWED), (
        f"called only from tests or nowhere: {', '.join(test_only)}")
    assert sorted(_shared_member_names(trees)) == sorted(SHARED_NAMES)


def test_compare_commands_use_every_input_file():
    # tools/compare_outputs.py runs each line of tools/compare_commands.txt
    # in a copy of tools/compare_inputs/: every input file a line names is
    # there, and every file there is named by some line
    spec = importlib.util.spec_from_file_location(
        "compare_outputs", REPO / "tools" / "compare_outputs.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    named = set()
    for args in tool.read_commands(REPO / "tools" / "compare_commands.txt"):
        for i, arg in enumerate(args):
            flag, eq, value = arg.partition("=")
            if flag in ("--config", "--series", "--spec"):
                named.add(value if eq else args[i + 1])
    given = {path.name for path in (REPO / "tools" / "compare_inputs").iterdir()}
    assert sorted(named - given) == []
    assert sorted(given - named) == []


def test_readme_config_example_and_schema_version_match_the_code():
    # README's experiment.cfg example parses into a config, and its output
    # heading names the schema version the commands write
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^```ini\n(# experiment\.cfg\n.*?)^```$", readme, re.M | re.S)
    config = ExperimentConfig(**parse_config(block.group(1)))
    assert config.insertions == 5 and config.schedule_sizes == (1, 2, 4, 8)
    heading = re.findall(r"^### Output files \(schema version (\d+)\)$", readme, re.M)
    assert heading == [str(SCHEMA_VERSION)]


def test_learn_noise_model_smoke():
    config = ExperimentConfig(model="ising", n_qubits=4, xi=0.037, shots=3000, seed=2)
    spectrum = unit_spectrum(generate_random_ising_graph(4, 123))
    beta_coin = spectrum.norm_bound * config.fit_beta
    p_fit = ideal_coin_probability(spectrum, beta_coin)
    seeds = SeedStream(2)
    fit = learn_noise_model(config, p_fit, seeds)
    assert 0.0 <= fit.xi <= 1.0
    # one toss seed per depth: the stream moved on by insertions + 1 draws
    unused = SeedStream(2)
    for _ in range(config.insertions + 1):
        unused.next()
    assert seeds.next() == unused.next()


GOLDEN = Path(__file__).parent / "data"
EXACT_COLUMNS = {
    "model", "instance", "instance_seed", "config_hash", "shots", "successes",
    "noisy_successes", "mitigation_clamped", "l", "attempts",
}


@pytest.mark.parametrize("command", ["sweep", "fragment"])
@pytest.mark.parametrize("model", ["ising", "qrbm"])
def test_seeded_outputs_match_golden(tmp_path, capsys, model, command):
    # tests/data/<model>_<command>.csv hold `qcoin <command> --model <model>`
    # at the default config.  The sweeps were written by schema-version-2
    # qcoin, which took the spectrum from the dense matrix; the fragment
    # runs by schema-version-10 qcoin, which writes one query bound.  Integer
    # and text columns must
    # match exactly and floats to 1e-12 relative; product_rel_err, itself a
    # rounding error, must stay below 1e-12.
    assert main([command, "--model", model, "--out", str(tmp_path)]) == 0
    _assert_rows_match_golden(tmp_path / f"{command}.csv",
                              GOLDEN / f"{model}_{command}.csv")


def test_written_query_bound_is_never_below_the_expected_cost(tmp_path, capsys):
    # no tolerance: the bound is the expected cost of the worst-step schedule,
    # formed by the expected cost's own float64 operations.  Checked on both
    # fragment goldens, on the rows their commands write, and on a seeded grid
    rows = []
    for model in MODELS:
        assert main(["fragment", "--model", model, "--out", str(tmp_path / model)]) == 0
        rows += read_rows(tmp_path / model / "fragment.csv")[1]
        rows += read_rows(GOLDEN / f"{model}_fragment.csv")[1]
    for row in rows:
        assert (float(row["query_bound_any_schedule"])
                >= float(row["expected_queries_per_success"])), row
    for seed in range(60):
        for spec in (generate_random_ising_graph(6, seed), generate_random_qrbm(3, 3, seed)):
            spectrum = unit_spectrum(spec)
            for beta in (0.0, 0.2, 1.0, 2.0, 4.0, 10.0):
                for l in (1, 2, 3, 4, 8, 16):
                    sched = uniform_schedule(spectrum, spectrum.norm_bound * beta, l, 1e-6)
                    bound = fragmented_query_bound(sched)
                    assert bound >= expected_queries_per_success(sched), (seed, beta, l)
                    # in exact arithmetic, max_j q_j * sum_{m=1}^{l} p_min^-m
                    p_min = float(sched.step_probabilities.min())
                    geometric = math.fsum(p_min**-m for m in range(1, l + 1))
                    assert bound == pytest.approx(
                        int(sched.step_query_costs.max()) * geometric, rel=1e-13)


@pytest.mark.parametrize("name, args", [
    ("ising_sweep_xi", ["--model", "ising", "--xi", "0.037"]),
    ("clamped_sweep_xi", ["--n-qubits", "6", "--beta", "100", "--seed", "7",
                          "--xi", "0.037"]),
])
def test_noisy_sweep_outputs_match_golden(tmp_path, capsys, name, args):
    # tests/data/<name>.csv hold noisy sweeps written by schema-version-9
    # qcoin: the fitted noise model mitigates every row, and in the clamped
    # sweep every mitigated value falls outside [0, 1].  Same rules as the
    # noiseless goldens above.
    assert main(["sweep", *args, "--out", str(tmp_path)]) == 0
    _assert_rows_match_golden(tmp_path / "sweep.csv", GOLDEN / f"{name}.csv")


def _assert_rows_match_golden(path, golden_path):
    golden_header, golden = read_rows(golden_path)
    header, rows = read_rows(path)
    assert header == golden_header and len(rows) == len(golden)
    for row, gold in zip(rows, golden):
        for key, expected in gold.items():
            if key == "product_rel_err":
                assert float(row[key]) <= 1e-12
            elif key in EXACT_COLUMNS or expected == "":
                assert row[key] == expected, (key, row[key], expected)
            else:
                assert math.isclose(
                    float(row[key]), float(expected), rel_tol=1e-12, abs_tol=0.0
                ), (key, row[key], expected)


def _assert_same_json(value, expected, path=""):
    if isinstance(expected, dict):
        assert value.keys() == expected.keys(), path
        for key in expected:
            _assert_same_json(value[key], expected[key], f"{path}.{key}")
    elif isinstance(expected, float):
        assert math.isclose(value, expected, rel_tol=1e-12, abs_tol=0.0), path
    else:
        assert value == expected, path


@pytest.mark.parametrize("algorithm", ["alg1", "alg2", "iterative"])
def test_coverage_outputs_match_golden(tmp_path, capsys, algorithm):
    # tests/data/coverage_<alg>.json hold `qcoin coverage <alg>` at the
    # config below, written by schema-version-6 qcoin, which draws every
    # repetition of a command from one generator.  Floats are compared to
    # 1e-12 relative.
    assert main([
        "coverage", algorithm, "--n-qubits", "4", "--beta", "2.0",
        "--reps", "40", "--seed", "17", "--out", str(tmp_path),
    ]) == 0
    name = f"coverage_{algorithm}.json"
    report = json.loads((tmp_path / name).read_text())
    golden = json.loads((GOLDEN / name).read_text())
    for doc in (report, golden):
        doc.pop("schema_version")
    _assert_same_json(report, golden)


def test_cli_generate_and_oracle(tmp_path, capsys):
    assert main([
        "generate", "--model", "ising", "--n-qubits", "4", "--instances", "2",
        "--seed", "3", "--out", str(tmp_path / "specs"),
    ]) == 0
    capsys.readouterr()
    spec_path = tmp_path / "specs" / "instance_000.json"
    spec = spec_from_json(spec_path.read_text())
    assert spec.n_qubits == 4

    out_json = tmp_path / "oracle.json"
    assert main([
        "oracle", "--spec", str(spec_path), "--beta", "0.5,1.0",
        "--out", str(out_json),
    ]) == 0
    doc = json.loads(out_json.read_text())
    assert len(doc["reports"]) == 2
    assert doc["reports"][0]["z_beta"] > 0

    # oracle's --seed is the instance seed, the one a spec file holds, not
    # the root seed that generate's --seed is
    assert main(["generate", "--n-qubits", "4", "--seed", "7",
                 "--out", str(tmp_path / "seed7")]) == 0
    capsys.readouterr()
    spec_path = tmp_path / "seed7" / "instance_000.json"
    instance_seed = spec_from_json(spec_path.read_text()).seed
    written = {}
    for name, argv in [("spec", ["--spec", str(spec_path)]),
                       ("instance_seed", ["--n-qubits", "4", "--seed", str(instance_seed)]),
                       ("root_seed", ["--n-qubits", "4", "--seed", "7"])]:
        out = tmp_path / f"{name}.json"
        assert main(["oracle", *argv, "--beta", "1,2", "--out", str(out)]) == 0
        written[name] = out.read_bytes()
    assert written["instance_seed"] == written["spec"]
    assert written["root_seed"] != written["spec"]


def test_run_generate_and_run_oracle_without_the_cli(tmp_path):
    # generate's instance seeds are the first draws of the root seed's
    # stream: the instance_seed values a sweep of the same config writes
    config = ExperimentConfig(n_qubits=4, instances=2, betas=(1.0,), shots=10, seed=3)
    paths = run_generate(config, tmp_path / "specs")
    assert paths == [tmp_path / "specs" / f"instance_00{i}.json" for i in (0, 1)]
    specs = [spec_from_json(path.read_text()) for path in paths]
    run_sweep(config, tmp_path / "sweep")
    rows = read_rows(tmp_path / "sweep" / "sweep.csv")[1]
    assert [str(spec.seed) for spec in specs] == [row["instance_seed"] for row in rows[:2]]
    # the report text of a spec file, and of the config that holds its seed
    text = run_oracle(paths[1], None, (0.5, 2.0))
    assert run_oracle(None, load_config(n_qubits=4, seed=specs[1].seed), (0.5, 2.0)) == text
    doc = json.loads(text)
    spectrum = unit_spectrum(specs[1])
    assert doc["kind"] == "oracle" and [r["beta"] for r in doc["reports"]] == [0.5, 2.0]
    assert doc["reports"][1]["p_suc_ideal"] == ideal_coin_probability(
        spectrum, spectrum.norm_bound * 2.0)


def test_run_oracle_reads_a_spec_file_with_a_byte_order_mark(tmp_path):
    plain = run_generate(ExperimentConfig(n_qubits=4, instances=1), tmp_path)[0]
    marked = tmp_path / "bom.json"
    marked.write_bytes(BOM + plain.read_bytes())
    assert run_oracle(marked, None, (1.0,)) == run_oracle(plain, None, (1.0,))


@pytest.mark.parametrize("argv, message", [
    (["--n-qubits", "0"], "field 'n_qubits' must be >= 1"),
    (["--n-qubits", "1"], "n_qubits >= 2"),
    (["--model", "qrbm", "--n-visible", "0"], "field 'n_visible' must be >= 1"),
    (["--instances", "0"], "field 'instances' must be >= 1"),
    (["--instances", "-1"], "field 'instances' must be >= 1"),
], ids=["n-qubits-0", "n-qubits-1", "qrbm-n-visible-0", "instances-0",
        "instances-negative"])
def test_cli_generate_rejects_counts_below_minimum(tmp_path, capsys, argv, message):
    # a count below its minimum is an input error, never a silent default,
    # and it leaves no output directory behind
    out = tmp_path / "specs"
    assert main(["generate", *argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err and len(err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("argv, config, message", [
    (["generate", "--model", "qrbm", "--n-qubits", "9"], None,
     "field 'n_qubits' does not apply to model 'qrbm'"),
    (["oracle", "--model", "ising", "--n-visible", "7"], None,
     "field 'n_visible' does not apply to model 'ising'"),
    (["sweep", "--model", "qrbm", "--n-qubits", "6"], None,
     "field 'n_qubits' does not apply to model 'qrbm'"),
    (["fragment"], "n_visible = 3\n", "field 'n_visible' does not apply to model 'ising'"),
], ids=["generate-qrbm-n-qubits", "oracle-ising-n-visible", "sweep-qrbm-n-qubits",
        "config-ising-n-visible"])
def test_cli_other_models_instance_count_is_input_error(tmp_path, capsys, argv, config,
                                                        message):
    # an instance count the model does not read is an input error, from a
    # flag or from a config file, never a silent default instance
    if config is not None:
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(config)
        argv = [*argv, "--config", str(cfg)]
    out = tmp_path / "out"
    out_arg = out / "oracle.json" if argv[0] == "oracle" else out
    assert main([*argv, "--out", str(out_arg)]) == 2
    err = capsys.readouterr().err
    assert message in err and len(err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("argv, config, message", [
    (["oracle", "--beta", "nan"], None, "beta must be finite"),
    (["oracle", "--beta", "inf"], None, "beta must be finite"),
    (["sweep", "--n-qubits", "4", "--beta", "0.5,inf"], None, "field 'betas'"),
    (["coverage", "alg1", "--beta", "nan"], None, "field 'betas'"),
    (["fragment", "--beta", "nan"], None, "field 'betas'"),
    (["sweep"], "fit_beta = nan\n", "field 'fit_beta'"),
    (["sweep"], "fit_beta = inf\n", "field 'fit_beta'"),
    (["fragment"], "frag_eps = nan\n", "field 'frag_eps'"),
    (["fragment"], "frag_eps = inf\n", "field 'frag_eps'"),
], ids=["oracle-nan", "oracle-inf", "sweep-inf", "coverage-nan", "fragment-nan",
        "fit-beta-nan", "fit-beta-inf", "frag-eps-nan", "frag-eps-inf"])
def test_cli_non_finite_float_is_input_error(tmp_path, capsys, argv, config, message):
    if config is not None:
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(config)
        argv = [*argv, "--config", str(cfg)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    assert not caught
    err = capsys.readouterr().err
    assert message in err and len(err.strip().splitlines()) == 1


def test_cli_sweep_and_exit_codes(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(SMALL_CFG)
    assert main([
        "sweep", "--config", str(cfg), "--xi", "0.037",
        "--out", str(tmp_path / "out"),
    ]) == 0
    capsys.readouterr()
    assert (tmp_path / "out" / "sweep.csv").exists()

    bad = tmp_path / "bad.txt"
    bad.write_text("model = bogus\n")
    assert main(["sweep", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
    assert main([
        "sweep", "--config", str(tmp_path / "missing.txt"),
        "--out", str(tmp_path / "x"),
    ]) == 2
    capsys.readouterr()
    assert main(["sweep", "--n-qubits", "13", "--out", str(tmp_path / "x")]) == 2
    assert "cap" in capsys.readouterr().err


def test_cli_coverage_and_fragment(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(SMALL_CFG + "reps = 30\nfrag_successes = 200\n")
    assert main([
        "coverage", "alg2", "--config", str(cfg), "--delta", "0.25",
        "--out", str(tmp_path / "cov"),
    ]) == 0
    report = json.loads((tmp_path / "cov" / "coverage_alg2.json").read_text())
    assert 0.0 <= report["coverage"] <= 1.0
    capsys.readouterr()
    assert main([
        "fragment", "--config", str(cfg), "--out", str(tmp_path / "frag"),
    ]) == 0
    assert (tmp_path / "frag" / "fragment.csv").exists()


def test_cli_fragment_qrbm(tmp_path, capsys):
    out = tmp_path / "frag"
    assert main([
        "fragment", "--model", "qrbm", "--seed", "3", "--beta", "2.0",
        "--out", str(out),
    ]) == 0
    _, rows = read_rows(out / "fragment.csv")
    assert [r["l"] for r in rows] == ["1", "2", "4", "8"]
    for row in rows:
        assert float(row["product_rel_err"]) <= 1e-12
        assert float(row["empirical_queries_per_success"]) > 0


def test_cli_fragment_infeasible_probability_is_input_error(tmp_path, capsys):
    # Ising n = 10 at beta 20: p_full ~ 1e-34, ~2e37 expected attempts
    assert main([
        "fragment", "--n-qubits", "10", "--beta", "20",
        "--out", str(tmp_path / "frag"),
    ]) == 2
    err = capsys.readouterr().err
    assert "toss budget infeasible: expected tosses = 2000 / p = " in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv, count", [
    (["coverage", "alg1", "--n-qubits", "12", "--beta", "8"], "count = "),
    (["sweep", "--n-qubits", "4", "--shots", "10000000000000000000"],
     "field 'shots' must be <= 2^63 - 1"),
    (["sweep", "--n-qubits", "4", "--shots", "10000000000000000000", "--xi", "0.037"],
     "field 'shots' must be <= 2^63 - 1"),
    # alg2's expected tosses 500 / p: 7.3e20 (p = 6.9e-19), then 1.8e95,
    # where the coin beta also passes float64's exp limit
    (["coverage", "alg2", "--n-qubits", "8", "--seed", "3", "--beta", "8",
      "--reps", "3"], "expected tosses = 500 / p = 7.29885e+20"),
    (["coverage", "alg2", "--n-qubits", "12", "--beta", "30", "--reps", "3"],
     "expected tosses = 500 / p = "),
], ids=["coverage-alg1", "sweep", "sweep-noise", "coverage-alg2",
        "coverage-alg2-past-exp"])
def test_cli_toss_count_past_int64_is_input_error(tmp_path, capsys, argv, count):
    # numpy's int64 draws count at most 2^63 - 1 tosses
    assert main([*argv, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert count in err and "2^63 - 1" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["coverage", "alg1"], ["coverage", "alg2"], ["coverage", "iterative"], ["fragment"],
], ids=["alg1", "alg2", "iterative", "fragment"])
def test_cli_underflowed_coin_is_one_input_error(tmp_path, capsys, argv):
    # at coin beta ~2.6e6 this instance's heads probability underflows to
    # 0.0: every sampling command reports it before any draw
    out = tmp_path / "out"
    assert main([*argv, "--n-qubits", "12", "--beta", "1e5", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == ("error: the coin's heads probability underflows to 0 at "
                   "beta_coin = 2.6269e+06: no head can be drawn\n")
    assert not out.exists()


def test_cli_additive_runner_budget_is_input_error(tmp_path, capsys):
    # Ising n = 8 at beta 12: the halving rounds reach an additive precision
    # that needs more than the runner's toss budget
    assert main([
        "coverage", "iterative", "--n-qubits", "8", "--beta", "12", "--reps", "1",
        "--out", str(tmp_path),
    ]) == 2
    err = capsys.readouterr().err
    assert "toss budget infeasible" in err and "_TOSS_BUDGET" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("algorithm", ["alg1", "alg2", "iterative"])
def test_cli_coverage_accepts_delta_below_float64_resolution(tmp_path, capsys, algorithm):
    # 1 - 1e-17 rounds to 1 in float64, yet delta = 1e-17 is a valid failure
    # probability: no estimator turns it into a confidence level
    assert main(["coverage", algorithm, "--n-qubits", "4", "--delta", "1e-17",
                 "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / f"coverage_{algorithm}.json").read_text())
    assert report["delta"] == 1e-17 and report["coverage"] == 1.0


@pytest.mark.parametrize("algorithm", ["alg1", "alg2", "iterative"])
def test_cli_coverage_past_float64_exp(tmp_path, capsys, algorithm):
    # beta_coin passes ~709, where Z and 2^n e^beta overflow float64, while
    # this instance's degenerate ground state keeps p = 0.125: Z is written
    # in log space and its linear value as null
    assert main([
        "coverage", algorithm, "--n-qubits", "4", "--beta", "300", "--reps", "3",
        "--out", str(tmp_path),
    ]) == 0
    report = json.loads((tmp_path / f"coverage_{algorithm}.json").read_text())
    assert report["z_exact"] is None
    # log Z = log(2^n e^beta p) = log 2 + beta_coin
    assert report["log_z_exact"] == pytest.approx(
        math.log(2.0) + report["beta_coin"], rel=1e-12)
    if algorithm == "iterative":
        assert report["theory"]["z_max"] is None
        assert report["theory"]["log_z_max"] == pytest.approx(
            math.log(16.0) + report["beta_coin"], rel=1e-15)


@pytest.mark.parametrize("algorithm", ["alg1", "alg2"])
def test_cli_coverage_past_float64_bessel_range(tmp_path, capsys, algorithm):
    # beta_coin ~1,653: I_0(beta_coin / 2) overflows float64, yet the degree
    # certifies from the coefficient tail and p stays 0.125
    assert main([
        "coverage", algorithm, "--n-qubits", "4", "--beta", "600", "--reps", "3",
        "--out", str(tmp_path),
    ]) == 0
    report = json.loads((tmp_path / f"coverage_{algorithm}.json").read_text())
    assert report["beta_coin"] == pytest.approx(1653.17, rel=1e-5)
    degree = required_degree(report["beta_coin"], 1e-16)
    assert report["mean_queries"] == pytest.approx(degree * report["mean_samples"],
                                                   rel=1e-12)


@pytest.mark.parametrize("eps_r", ["1e-300", "1e-160"])
def test_cli_iterative_precision_past_the_toss_budget_is_input_error(
    tmp_path, capsys, eps_r
):
    # eps_r / 2 squared underflows (1e-300) or its reciprocal overflows
    # (1e-160): the run is refused before any draw, with no numpy warning
    assert main(["coverage", "iterative", "--n-qubits", "4", "--eps-r", eps_r,
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "toss budget infeasible" in err and len(err.strip().splitlines()) == 1


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_cli_oracle_past_float64_exp(tmp_path, capsys):
    # the instance of test_cli_coverage_past_float64_exp: Z is not
    # representable, so z_beta is null and the free energy comes from log Z
    assert main(["oracle", "--n-qubits", "4", "--beta", "300"]) == 0
    out = capsys.readouterr().out
    report, = json.loads(out, parse_constant=_reject_constant)["reports"]
    assert report["p_suc_ideal"] == 0.125
    assert report["z_beta"] is None
    # log Z = log 2 + beta_coin, as in the coverage report
    assert report["free_energy"] == pytest.approx(
        -(math.log(2.0) + report["beta_coin"]) / report["beta_coin"], rel=1e-12)


def test_cli_oracle_underflowed_probability(tmp_path, capsys):
    # at coin beta ~2346 this instance's p underflows to 0, so 1/p has no
    # float64 value: mean_trials is null, like z_beta
    assert main(["oracle", "--n-qubits", "6", "--beta", "0.5,2,300", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    reports = json.loads(out, parse_constant=_reject_constant)["reports"]
    for report in reports[:2]:
        assert report["mean_trials"] == 1.0 / report["p_suc_ideal"]
    last = reports[2]
    assert last["p_suc_ideal"] == 0.0
    assert last["mean_trials"] is None and last["z_beta"] is None
    assert math.isfinite(last["free_energy"])


def test_config_fields_are_the_config_file_keys():
    text = "\n".join(f"{name} = 1" for name in ExperimentConfig.fields)
    assert list(parse_config(text)) == list(ExperimentConfig.fields)


def _config_reads(functions, name):
    """Fields read as ``config.<field>`` in ``name`` and in each function of
    ``functions`` that it hands ``config`` to, directly or further down."""
    reads = set()
    for node in ast.walk(functions[name]):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "config"):
            reads.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in functions
              and any(isinstance(arg, ast.Name) and arg.id == "config"
                      for arg in node.args)):
            reads |= _config_reads(functions, node.func.id)
    return reads


def test_config_commands_offer_the_flags_their_runner_reads():
    # a config command's flags, less --config and --out, set exactly the
    # fields of the option table that its runner reads: no flag is a no-op,
    # and none that the runner reads is missing
    path = Path(qcoin.__file__).parent / "experiments.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    table = {opt.dest for opt in _CONFIG_OPTIONS} - {"config", "out"}
    mismatched = []
    for command, runner in [("sweep", "run_sweep"), ("coverage", "run_coverage"),
                            ("fragment", "run_fragment")]:
        offered = {opt.dest for opt in _COMMANDS[command][2]} - {"config", "out"}
        read = _config_reads(functions, runner) & table
        if offered != read:
            mismatched.append((command, sorted(offered - read), sorted(read - offered)))
    assert mismatched == [], "(command, offered but not read, read but not offered)"


# the config flags that each config command's runner does not read
DROPPED_FLAGS = {
    ("sweep",): "--eps-r --reps",
    ("coverage", "alg1"): "--shots --xi --layers --instances",
    ("fragment",): "--shots --eps-r --delta --xi --layers --instances --reps",
}


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command, flags in DROPPED_FLAGS.items() for flag in flags.split()])
def test_cli_config_command_rejects_a_flag_it_does_not_read(tmp_path, capsys, command,
                                                            flag):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        main([*command, "--n-qubits", "4", flag, "3", "--out", str(out)])
    assert exit_info.value.code == 2
    assert f"error: unrecognized arguments: {flag} 3" in capsys.readouterr().err
    assert not out.exists()


def test_cli_noise_fit_degenerate_is_input_error(tmp_path, capsys):
    series_path = tmp_path / "flat.csv"
    write_layer_series(series_path, [10, 12, 14], [500, 500, 500], 1000)
    assert main([
        "noise-fit", "--series", str(series_path), "--out", str(tmp_path / "nf"),
    ]) == 2


SWEEP_N4_XI = ["sweep", "--n-qubits", "4", "--instances", "1", "--beta", "1", "--xi", "0.01"]


@pytest.mark.parametrize("argv, files, xi, p_hat", [
    # a series that says nothing about xi: the minimum is at xi = 0
    (["noise-fit", "--series", "series.csv"],
     {"series.csv": "layers,successes,shots\n26,504,1000\n37,489,1000\n"
                    "48,502,1000\n59,495,1000\n"}, 0.0, 0.4975),
    (["noise-fit", "--series", "series.csv"],
     {"series.csv": "layers,successes,shots\n3,4,5\n48,3,5\n86,2,5\n119,1,5\n152,5,5\n"},
     0.04227, 0.8459),
    ([*SWEEP_N4_XI, "--shots", "300", "--seed", "114"], {}, 0.0, 0.555),
    ([*SWEEP_N4_XI, "--shots", "30", "--seed", "31", "--config", "cfg.txt"],
     {"cfg.txt": "fit_beta = 0.5\n"}, 0.0704, 0.2351),
], ids=["noise-fit-flat", "noise-fit-five-shots", "sweep-seed-114", "sweep-fit-beta-seed-31"])
def test_cli_noise_fit_reaches_the_global_minimum(tmp_path, capsys, monkeypatch, argv,
                                                  files, xi, p_hat):
    # flat or few-shot series, on which a local search can stop at xi = 1 or not
    # converge
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--out", "out"]) == 0
    if argv[0] == "noise-fit":
        fit = json.loads((tmp_path / "out" / "noise_fit.json").read_text())
        series = read_layer_series(tmp_path / "series.csv")
        assert fit["residual"] ** 2 <= rss_bound(series.depths, series.measured_p)
    else:
        fit = json.loads((tmp_path / "out" / "sweep_summary.json").read_text())["noise_fit"]
    assert fit["xi"] == pytest.approx(xi, rel=1e-3, abs=0.0)  # 0 exactly where no decay shows
    assert fit["p_hat"] == pytest.approx(p_hat, rel=1e-3)
    assert fit["xi_sigma"] > 0.0


def test_cli_noise_fit_curve_error_writes_nothing(tmp_path, capsys, monkeypatch):
    # the report and the curve are both computed before anything is written
    def overflow(*args):
        raise FloatingPointError("overflow encountered in power")

    monkeypatch.setattr(qcoin.experiments, "fitted_curve", overflow)
    series_path = tmp_path / "series.csv"
    write_layer_series(series_path, [10, 12, 14, 16, 18], [620, 601, 590, 575, 566], 1000)
    assert main([
        "noise-fit", "--series", str(series_path), "--out", str(tmp_path / "nf"),
    ]) == 3
    err = capsys.readouterr().err
    assert "float64 range" in err and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "nf").exists()


def test_cli_fragment_beta_zero_bound_is_positive_zero(tmp_path, capsys):
    # at beta 0, p_full = 1 and the schedule-size bound -log2(1) / b is 0
    assert main(["fragment", "--n-qubits", "4", "--beta", "0", "--out", str(tmp_path)]) == 0
    _, rows = read_rows(tmp_path / "fragment.csv")
    assert [r["schedule_bound_b1"] for r in rows] == ["0.0"] * 4


def test_cli_fragment_bound_past_float64_is_empty(tmp_path, capsys):
    # at beta 5000 the 2000-step bound, max q * sum_m p_min^-m, passes float64:
    # its cell is empty, and every other cell of both rows is written
    cfg = tmp_path / "long.cfg"
    cfg.write_text("schedule_sizes = 1,2000\nfrag_successes = 20\n")
    assert main([
        "fragment", "--config", str(cfg), "--n-qubits", "2", "--beta", "5000",
        "--out", str(tmp_path / "frag"),
    ]) == 0
    assert capsys.readouterr().err == ""
    _, rows = read_rows(tmp_path / "frag" / "fragment.csv")
    assert [r["l"] for r in rows] == ["1", "2000"]
    assert [r["query_bound_any_schedule"] == "" for r in rows] == [False, True]
    for row in rows:
        assert all(math.isfinite(float(v)) for k, v in row.items()
                   if k != "config_hash" and v != "")


def test_cli_fragment_past_float64_exp_is_exact(tmp_path, capsys):
    # beta_coin passes ~709, where e^{2 w} and Z overflow float64; the step
    # probabilities never form them.  The instance's ground state is
    # degenerate, so p_full = 0.125 is far from underflow.
    assert main([
        "fragment", "--n-qubits", "4", "--beta", "300", "--out", str(tmp_path),
    ]) == 0
    _, rows = read_rows(tmp_path / "fragment.csv")
    assert [r["l"] for r in rows] == ["1", "2", "4", "8"]
    for row in rows:
        assert float(row["product_rel_err"]) <= 1e-12
        assert float(row["p_unfragmented"]) == pytest.approx(0.125, rel=1e-12)
        assert all(math.isfinite(float(v)) for k, v in row.items()
                   if k != "config_hash")


@pytest.mark.parametrize("argv", [
    ["sweep", "--n-qubits", "4", "--instances", "1"],
], ids=["sweep"])
def test_cli_float_overflow_is_runtime_error(tmp_path, capsys, monkeypatch, argv):
    # an ArithmeticError escaping a command, here the FloatingPointError that
    # main's np.errstate(over="raise") turns an overflow into, exits 3
    def overflow(*args):
        raise FloatingPointError("overflow encountered in exp")

    monkeypatch.setattr(qcoin.experiments, "exact_partition_function", overflow)
    assert main([*argv, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "float64 range" in err and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["--n-qubits", "6", "--beta", "100", "--seed", "7"],
    ["--n-qubits", "4", "--beta", "300", "--instances", "1"],
], ids=["n6-beta100", "n4-beta300"])
def test_cli_sweep_past_float64_exp(tmp_path, capsys, argv):
    # coin betas past ~709, where 2^n e^beta overflows float64: p is written,
    # and a z cell is empty exactly where float64 cannot hold its value
    assert main(["sweep", *argv, "--out", str(tmp_path)]) == 0
    header, rows = read_rows(tmp_path / "sweep.csv")
    n = int(argv[1])
    empty = 0
    for row in rows:
        for key in header:
            if row[key] == "" or key in ("model", "instance", "config_hash"):
                continue
            assert math.isfinite(float(row[key])), (key, row[key])
        if row["instance"] == "mean":
            continue
        spectrum = unit_spectrum(generate_random_ising_graph(n, int(row["instance_seed"])))
        beta_coin = float(row["beta_coin"])
        log_z = log_partition_function(spectrum, beta_coin)
        log_z_hat = n * math.log(2.0) + beta_coin + math.log(float(row["p_hat"]))
        for key, log_value in (("z_exact", log_z), ("z_hat", log_z_hat)):
            if log_value > math.log(sys.float_info.max):
                assert row[key] == ""
                empty += 1
            else:
                assert math.log(float(row[key])) == pytest.approx(log_value, rel=1e-12)
        assert float(row["p_exact"]) == ideal_coin_probability(spectrum, beta_coin)
    assert empty > 0
