"""Experiment runners and persistence: sweeps, coverage studies, noise fits.

Configurations are flat ``key = value`` text files (see ``parse_config``)
merged with command-line overrides.  Runs are deterministic: all randomness
derives from the root seed through a sequential ``SeedSequence`` stream,
and every output row carries the instance seed and a hash of the resolved
configuration.

CSV schemas (versioned; SCHEMA_VERSION below):
  sweep.csv     model, instance, instance_seed, config_hash, beta, beta_coin,
                norm_bound, z_exact, p_exact, shots, successes, p_hat,
                p_hat_sigma, noisy_successes, p_noisy_hat, p_noisy_sigma,
                p_mitigated, p_mitigated_sigma, mitigation_clamped, z_hat,
                z_mitigated   (noise columns empty when running noiseless;
                averaged rows use instance = "mean")
  fragment.csv  l, product_step_p, p_unfragmented, product_rel_err,
                schedule_bound_b1, expected_queries_per_success,
                query_bound_any_schedule, query_bound_equal_schedule,
                empirical_queries_per_success, success_freq, attempts,
                instance_seed, config_hash
                (the equal-schedule bound is the closed form that assumes
                equal step probabilities; the any-schedule bound is the
                rigorous geometric-sum form and is the one the uniform
                schedules written here are guaranteed to respect)
  series csv    layers, successes, shots     (noise-fit input)
  curve csv     layers, fitted_p, band_sigma (noise-fit output)
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .coin import (
    CoinSpec,
    SeedStream,
    toss,
    toss_fragmented,
    uniform_schedule,
    expected_queries_per_success,
    fragmented_query_bound,
    schedule_size_lower_bound,
)
from .estimators import (
    ac_estimate,
    algorithm1,
    algorithm2,
    make_additive_runner,
    relative_from_additive,
    sample_count_thm1,
    success_count_thm2,
    expected_total_tosses_thm2,
)
from .hamiltonian import (
    generate_random_ising_graph,
    generate_random_qrbm,
    unit_spectrum,
)
from .noise import (
    LayerSeries,
    fit_noise_model,
    identity_insertion_depths,
    mitigate,
    noisy_success_probability,
    propagate_uncertainty,
    simulate_noisy_tosses,
    NoiseFit,
)
from .oracle import exact_partition_function, ideal_coin_probability

SCHEMA_VERSION = 4


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved experiment parameters (see module docstring for the file grammar)."""

    model: str = "ising"
    n_qubits: int = 4
    n_visible: int = 2
    n_hidden: int = 2
    instances: int = 5
    betas: tuple[float, ...] = (0.2, 1.0, 2.0, 4.0, 10.0)
    shots: int = 3000
    delta: float = 0.05
    eps_r: float = 0.2
    xi: float | None = None
    layers: int = 10
    insertions: int = 5
    fit_beta: float = 0.1
    reps: int = 400
    seed: int = 0
    schedule_sizes: tuple[int, ...] = (1, 2, 4, 8)
    frag_eps: float = 1e-6
    frag_successes: int = 2000

    def __post_init__(self) -> None:
        if self.model not in ("ising", "qrbm"):
            raise ValueError(f"field 'model' must be ising or qrbm, got {self.model!r}")
        for name in ("n_qubits", "n_visible", "n_hidden", "instances", "shots",
                     "layers", "reps", "frag_successes"):
            if int(getattr(self, name)) < 1:
                raise ValueError(f"field {name!r} must be >= 1")
        if self.insertions < 0:
            raise ValueError("field 'insertions' must be >= 0")
        if not self.betas or any(b < 0 for b in self.betas):
            raise ValueError("field 'betas' must be non-empty and non-negative")
        if not 0 < self.delta < 1:
            raise ValueError("field 'delta' must be in (0, 1)")
        if not 0 < self.eps_r < 1:
            raise ValueError("field 'eps_r' must be in (0, 1)")
        if self.xi is not None and not 0 <= self.xi <= 1:
            raise ValueError("field 'xi' must be in [0, 1]")
        if self.fit_beta <= 0:
            raise ValueError("field 'fit_beta' must be positive")
        if not self.schedule_sizes or any(l < 1 for l in self.schedule_sizes):
            raise ValueError("field 'schedule_sizes' must contain positive sizes")
        if self.frag_eps <= 0:
            raise ValueError("field 'frag_eps' must be positive")


_INT_FIELDS = {"n_qubits", "n_visible", "n_hidden", "instances", "shots",
               "layers", "insertions", "reps", "seed", "frag_successes"}
_FLOAT_FIELDS = {"delta", "eps_r", "xi", "fit_beta", "frag_eps"}
_LIST_FLOAT_FIELDS = {"betas"}
_LIST_INT_FIELDS = {"schedule_sizes"}


def parse_config(text: str) -> dict:
    """Parse the flat config grammar: ``key = value`` lines, ``#`` comments.

    Lists are comma-separated.  Unknown keys are rejected.
    """
    known = set(ExperimentConfig.__dataclass_fields__)
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in known:
            raise ValueError(f"config line {lineno}: unknown field {key!r}")
        values[key] = _coerce(key, val)
    return values


def _coerce(key: str, val: str):
    if key in _INT_FIELDS:
        return int(val)
    if key in _FLOAT_FIELDS:
        return float(val)
    if key in _LIST_FLOAT_FIELDS:
        return tuple(float(v) for v in val.split(","))
    if key in _LIST_INT_FIELDS:
        return tuple(int(v) for v in val.split(","))
    return val


def load_config(path: str | Path | None = None, **overrides) -> ExperimentConfig:
    """Config from an optional file plus keyword overrides (None skipped)."""
    values: dict = {}
    if path is not None:
        values.update(parse_config(Path(path).read_text(encoding="utf-8")))
    values.update({k: v for k, v in overrides.items() if v is not None})
    return ExperimentConfig(**values)


def config_hash(config: ExperimentConfig) -> str:
    """Short provenance hash of the resolved configuration."""
    doc = json.dumps(asdict(config), sort_keys=True)
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()[:12]


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (bool, np.bool_)):
        return str(int(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _instance_spec(config: ExperimentConfig, instance_seed: int):
    if config.model == "ising":
        return generate_random_ising_graph(config.n_qubits, instance_seed)
    return generate_random_qrbm(config.n_visible, config.n_hidden, instance_seed)


def learn_noise_model(
    config: ExperimentConfig, fit_coin: CoinSpec, seeds: SeedStream
) -> tuple[NoiseFit, LayerSeries]:
    """Identity-insertion noise learning on a reference circuit.

    Simulates the depth series for the configured xi on the fit circuit
    (the sweep passes its first instance at ``fit_beta``) and fits (xi, p)
    back out.
    """
    p_ideal = fit_coin.heads_probability
    depths = identity_insertion_depths(config.layers, config.insertions)
    successes = [
        simulate_noisy_tosses(p_ideal, config.xi, depth, config.shots, seeds.next())
        for depth in depths
    ]
    series = LayerSeries(
        depths=np.array(depths),
        measured_p=np.array(successes) / config.shots,
        shots_per_point=config.shots,
    )
    return fit_noise_model(series), series


def run_sweep(config: ExperimentConfig, out_dir: str | Path) -> dict:
    """Beta sweep over random instances: exact, sampled, noisy, mitigated.

    Writes ``sweep.csv`` and ``sweep_summary.json``; returns the summary.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    chash = config_hash(config)
    seeds = SeedStream(config.seed)
    instance_seeds = [seeds.next() for _ in range(config.instances)]
    specs = [_instance_spec(config, s) for s in instance_seeds]

    header = [
        "model", "instance", "instance_seed", "config_hash", "beta", "beta_coin",
        "norm_bound", "z_exact", "p_exact", "shots", "successes", "p_hat",
        "p_hat_sigma", "noisy_successes", "p_noisy_hat", "p_noisy_sigma",
        "p_mitigated", "p_mitigated_sigma", "mitigation_clamped", "z_hat",
        "z_mitigated",
    ]
    rows: list[list] = []
    per_beta: dict[float, list[dict]] = {b: [] for b in config.betas}
    fit = None  # learned on instance 0, before any of its tosses
    for idx, (ispec, iseed) in enumerate(zip(specs, instance_seeds)):
        spectrum = unit_spectrum(ispec)
        lam = spectrum.norm_bound
        if idx == 0 and config.xi is not None:
            fit_coin = CoinSpec(spectrum, lam * config.fit_beta)
            fit, _ = learn_noise_model(config, fit_coin, seeds)
        for beta in config.betas:
            beta_coin = lam * beta
            coin = CoinSpec(spectrum, beta_coin)
            p_exact = coin.heads_probability
            z_exact = exact_partition_function(spectrum, beta_coin)
            scale = spectrum.dim * math.exp(beta_coin)
            successes = toss(coin, config.shots, seeds.next())
            p_hat, _ = ac_estimate(successes, config.shots, config.delta)
            p_sigma = math.sqrt(p_hat * (1.0 - p_hat) / config.shots)
            record = {
                "beta": beta, "p_exact": p_exact, "p_hat": p_hat,
                "p_sigma": p_sigma,
            }
            noisy_cols: list = ["", "", "", "", "", ""]
            if fit is not None:
                n_succ = simulate_noisy_tosses(
                    p_exact, config.xi, config.layers, config.shots, seeds.next()
                )
                p_noisy_hat, _ = ac_estimate(n_succ, config.shots, config.delta)
                p_noisy_sigma = math.sqrt(
                    p_noisy_hat * (1.0 - p_noisy_hat) / config.shots
                )
                p_mit, clamped = mitigate(p_noisy_hat, fit.model, config.layers)
                p_mit_sigma = propagate_uncertainty(
                    p_noisy_hat, p_noisy_sigma, fit.model, config.layers
                )
                noisy_cols = [
                    n_succ, p_noisy_hat, p_noisy_sigma, p_mit, p_mit_sigma, clamped,
                ]
                record.update(
                    p_noisy_hat=p_noisy_hat, p_noisy_sigma=p_noisy_sigma,
                    p_mitigated=p_mit, p_mitigated_sigma=p_mit_sigma,
                )
            rows.append(
                [config.model, idx, iseed, chash, beta, beta_coin, lam,
                 z_exact, p_exact, config.shots, successes, p_hat, p_sigma]
                + noisy_cols
                + [scale * p_hat,
                   scale * noisy_cols[3] if fit is not None else ""]
            )
            per_beta[beta].append(record)

    for beta in config.betas:
        group = per_beta[beta]
        k = len(group)
        mean_cols: dict = {
            key: sum(g[key] for g in group) / k
            for key in ("p_exact", "p_hat")
        }
        sig = math.sqrt(sum(g["p_sigma"] ** 2 for g in group)) / k
        noisy_cols = ["", "", "", "", "", ""]
        if fit is not None:
            noisy_cols = [
                "",
                sum(g["p_noisy_hat"] for g in group) / k,
                math.sqrt(sum(g["p_noisy_sigma"] ** 2 for g in group)) / k,
                sum(g["p_mitigated"] for g in group) / k,
                math.sqrt(sum(g["p_mitigated_sigma"] ** 2 for g in group)) / k,
                "",
            ]
        rows.append(
            [config.model, "mean", "", chash, beta, "", "", "",
             mean_cols["p_exact"], config.shots, "", mean_cols["p_hat"], sig]
            + noisy_cols + ["", ""]
        )

    _write_csv(out / "sweep.csv", header, rows)
    summary = {
        "schema_version": SCHEMA_VERSION,
        "kind": "sweep",
        "config": asdict(config),
        "config_hash": chash,
        "noise_fit": json.loads(fit.to_json()) if fit is not None else None,
        "rows": len(rows),
    }
    (out / "sweep_summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return summary


def run_coverage(config: ExperimentConfig, algorithm: str,
                 out_dir: str | Path | None = None) -> dict:
    """Repeat an estimator and report the fraction hitting its relative target."""
    if algorithm not in ("alg1", "alg2", "iterative"):
        raise ValueError(f"unknown algorithm {algorithm!r}")
    seeds = SeedStream(config.seed)
    spec = _instance_spec(config, seeds.next())
    beta = config.betas[0]
    spectrum = unit_spectrum(spec)
    beta_coin = spectrum.norm_bound * beta
    coin = CoinSpec(spectrum, beta_coin)
    z_exact = exact_partition_function(spectrum, beta_coin)
    n = spectrum.n_qubits

    theory: dict = {}
    if algorithm == "alg1":
        budget = sample_count_thm1(n, beta_coin, z_exact, config.eps_r, config.delta)
        theory["sample_count"] = budget
    elif algorithm == "alg2":
        budget = success_count_thm2(config.eps_r, config.delta)
        theory["success_count"] = budget
        theory["expected_total_tosses"] = expected_total_tosses_thm2(
            n, beta_coin, z_exact, config.eps_r, config.delta
        )
    else:
        theory["z_max"] = spectrum.dim * math.exp(beta_coin)

    hits = 0
    samples: list[int] = []
    queries: list[int] = []
    rounds: list[int] = []
    for _ in range(config.reps):
        rep_seed = seeds.next()
        if algorithm == "alg1":
            est = algorithm1(coin, budget, config.delta, rep_seed)
        elif algorithm == "alg2":
            est, _ = algorithm2(coin, budget, rep_seed, delta=config.delta)
        else:
            runner = make_additive_runner(coin, rep_seed)
            est = relative_from_additive(
                runner, theory["z_max"], config.eps_r, config.delta
            )
            rounds.append(est.rounds)
        samples.append(est.samples_used)
        queries.append(est.queries_used)
        if abs(est.value - z_exact) <= config.eps_r * z_exact:
            hits += 1

    report = {
        "schema_version": SCHEMA_VERSION,
        "kind": "coverage",
        "algorithm": algorithm,
        "config_hash": config_hash(config),
        "beta": beta,
        "beta_coin": beta_coin,
        "z_exact": z_exact,
        "reps": config.reps,
        "coverage": hits / config.reps,
        "eps_r": config.eps_r,
        "delta": config.delta,
        "mean_samples": float(np.mean(samples)),
        "mean_queries": float(np.mean(queries)),
        "theory": theory,
    }
    if rounds:
        report["rounds"] = {
            "median": float(np.median(rounds)),
            "min": int(min(rounds)),
            "max": int(max(rounds)),
        }
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"coverage_{algorithm}.json").write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    return report


def read_layer_series(path: str | Path) -> LayerSeries:
    """Read a depth series CSV with columns (layers, successes, shots)."""
    lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    if not lines or lines[0].strip().lower() != "layers,successes,shots":
        raise ValueError("series CSV must start with header 'layers,successes,shots'")
    depths: list[int] = []
    measured: list[float] = []
    shots_seen: set[int] = set()
    for line in lines[1:]:
        if not line.strip():
            continue
        layers_s, succ_s, shots_s = line.split(",")
        depths.append(int(layers_s))
        shots = int(shots_s)
        succ = int(succ_s)
        if not 0 <= succ <= shots:
            raise ValueError(f"successes {succ} outside [0, {shots}]")
        shots_seen.add(shots)
        measured.append(succ / shots)
    if len(shots_seen) != 1:
        raise ValueError("all series rows must use the same shot count")
    return LayerSeries(
        depths=np.array(depths), measured_p=np.array(measured),
        shots_per_point=shots_seen.pop(),
    )


def write_layer_series(path: str | Path, depths, successes, shots: int) -> None:
    rows = [[int(d), int(s), shots] for d, s in zip(depths, successes)]
    _write_csv(Path(path), ["layers", "successes", "shots"], rows)


def run_noise_fit(series_path: str | Path, out_dir: str | Path) -> dict:
    """Fit a depth-series CSV; write the report and a fitted-curve table."""
    series = read_layer_series(series_path)
    fit = fit_noise_model(series)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report = json.loads(fit.to_json())
    report["schema_version"] = SCHEMA_VERSION
    report["kind"] = "noise_fit"
    (out / "noise_fit.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    rows = []
    for depth in range(int(series.depths[0]), int(series.depths[-1]) + 1):
        fitted = noisy_success_probability(fit.p_hat, fit.model.xi, depth)
        decay = (1.0 - fit.model.xi) ** depth
        grad = np.array(
            [-depth * (1.0 - fit.model.xi) ** (depth - 1) * (fit.p_hat - 0.5), decay]
        )
        band = math.sqrt(max(float(grad @ fit.covariance @ grad), 0.0))
        rows.append([depth, fitted, band])
    _write_csv(out / "noise_fit_curve.csv", ["layers", "fitted_p", "band_sigma"], rows)
    return report


def run_fragment(config: ExperimentConfig, out_dir: str | Path) -> dict:
    """Fragmented-coin cost study across schedule sizes."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    chash = config_hash(config)
    seeds = SeedStream(config.seed)
    instance_seed = seeds.next()
    spec = _instance_spec(config, instance_seed)
    beta = config.betas[0]
    spectrum = unit_spectrum(spec)
    beta_coin = spectrum.norm_bound * beta
    p_full = ideal_coin_probability(spectrum, beta_coin)
    rows = []
    for l in config.schedule_sizes:
        schedule = uniform_schedule(beta_coin, l, config.frag_eps)
        step_p = schedule.step_probabilities(spectrum)
        product = math.prod(step_p)
        run = toss_fragmented(spectrum, schedule, config.frag_successes, seeds.next())
        b = -math.log2(min(step_p)) if min(step_p) < 1.0 else 1.0
        rows.append([
            l,
            product,
            p_full,
            abs(product - p_full) / p_full,
            schedule_size_lower_bound(p_full, b),
            expected_queries_per_success(spectrum, schedule),
            fragmented_query_bound(
                spectrum, schedule, assume_equal_probabilities=False
            ),
            fragmented_query_bound(spectrum, schedule),
            run.queries_per_success,
            run.successes / run.attempts,
            run.attempts,
            instance_seed,
            chash,
        ])
    header = ["l", "product_step_p", "p_unfragmented", "product_rel_err",
              "schedule_bound_b1", "expected_queries_per_success",
              "query_bound_any_schedule", "query_bound_equal_schedule",
              "empirical_queries_per_success", "success_freq", "attempts",
              "instance_seed", "config_hash"]
    _write_csv(out / "fragment.csv", header, rows)
    summary = {
        "schema_version": SCHEMA_VERSION,
        "kind": "fragment",
        "config_hash": chash,
        "beta": beta,
        "beta_coin": beta_coin,
        "schedule_sizes": list(config.schedule_sizes),
    }
    (out / "fragment_summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return summary
