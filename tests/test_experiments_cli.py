import json
import math
from pathlib import Path

import numpy as np
import pytest

from qcoin.cli import main
from qcoin.experiments import (
    ExperimentConfig,
    config_hash,
    learn_noise_model,
    load_config,
    parse_config,
    read_layer_series,
    run_coverage,
    run_fragment,
    run_noise_fit,
    run_sweep,
    write_layer_series,
    SeedStream,
)
from qcoin.coin import CoinSpec
from qcoin.hamiltonian import (
    build_hamiltonian,
    generate_random_ising_graph,
    rescale_to_unit_spectrum,
    spec_from_json,
)
from qcoin.noise import identity_insertion_depths, simulate_noisy_tosses

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


def test_run_coverage_alg1_and_alg2():
    config = ExperimentConfig(
        model="ising", n_qubits=4, instances=1, betas=(1.0,), reps=60,
        eps_r=0.2, delta=0.05, seed=3,
    )
    report = run_coverage(config, "alg1")
    assert report["coverage"] >= 0.9
    assert report["theory"]["sample_count"] == report["mean_samples"]

    config2 = ExperimentConfig(
        model="ising", n_qubits=4, instances=1, betas=(1.0,), reps=60,
        eps_r=0.2, delta=0.25, seed=3,
    )
    report2 = run_coverage(config2, "alg2")
    assert report2["coverage"] >= 0.7
    assert report2["theory"]["success_count"] == 100
    with pytest.raises(ValueError):
        run_coverage(config, "alg3")


def test_run_coverage_iterative_rounds():
    config = ExperimentConfig(
        model="ising", n_qubits=3, instances=1, betas=(2.0,), reps=40,
        eps_r=0.2, delta=0.1, seed=17,
    )
    report = run_coverage(config, "iterative")
    assert report["coverage"] >= 0.9
    predicted = math.log2(report["theory"]["z_max"] / report["z_exact"])
    assert abs(report["rounds"]["median"] - predicted) <= 2.0


def test_layer_series_csv_round_trip(tmp_path):
    depths = identity_insertion_depths(10, 5)
    successes = [simulate_noisy_tosses(0.38, 0.037, d, 3000, 50 + d) for d in depths]
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


@pytest.mark.parametrize(
    "model, max_eigh",
    [({"model": "ising", "n_qubits": 4}, 0),
     ({"model": "qrbm", "n_visible": 2, "n_hidden": 2}, 1)],
    ids=["ising", "qrbm"],
)
def test_run_sweep_decomposes_each_instance_at_most_once(
    tmp_path, monkeypatch, model, max_eigh
):
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(matrix):
        calls.append(matrix.shape)
        return eigh(matrix)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    config = ExperimentConfig(
        **model, instances=1, betas=(0.5, 2.0), xi=0.037, shots=200, seed=5
    )
    run_sweep(config, tmp_path)
    assert len(calls) <= max_eigh


def test_learn_noise_model_smoke():
    config = ExperimentConfig(model="ising", n_qubits=4, xi=0.037, shots=3000, seed=2)
    h = build_hamiltonian(generate_random_ising_graph(4, 123))
    h_unit, beta_coin = rescale_to_unit_spectrum(h, config.fit_beta)
    fit, series = learn_noise_model(config, CoinSpec(h_unit, beta_coin), SeedStream(2))
    assert 0.0 <= fit.model.xi <= 1.0
    assert len(series.depths) == config.insertions + 1


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


def test_cli_noise_fit_degenerate_is_input_error(tmp_path, capsys):
    series_path = tmp_path / "flat.csv"
    write_layer_series(series_path, [10, 12, 14], [500, 500, 500], 1000)
    assert main([
        "noise-fit", "--series", str(series_path), "--out", str(tmp_path / "nf"),
    ]) == 2
