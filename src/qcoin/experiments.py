"""One runner per ``qcoin`` command (``run_generate``, ..., ``run_fragment``),
and the files they read and write.

Configurations are flat ``key = value`` text files (see ``parse_config``)
merged with command-line overrides; config, spec and series files are UTF-8
with one optional leading byte-order mark.  Runs are deterministic: all
randomness derives from the root seed through a ``SeedStream``, whose
first draws are the instance seeds, and every output row carries the
instance seed and a hash of the resolved configuration.

Every command computes all of its results first and then hands each
file's text to ``write_outputs``, so a command that fails writes nothing.
A CSV file has one header, a ``_*_COLUMNS`` tuple below (versioned by
SCHEMA_VERSION); its rows are dicts keyed by column, and a column a row
lacks is an empty cell, as is a value float64 cannot hold (sweep's Z columns,
fragment's query bound).  JSON reports write null there: coverage's z_exact
and theory.z_max, and oracle's z_beta and mean_trials.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
from pathlib import Path

import numpy as np

from .coin import (
    MAX_DRAW_COUNT,
    query_cost,
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
    spec_from_json,
    unit_spectrum,
)
from .noise import (
    LayerSeries,
    fit_noise_model,
    fitted_curve,
    identity_insertion_depths,
    mitigate,
    noisy_success_probability,
    NoiseFit,
)
from .oracle import (
    exact_partition_function,
    exp_or_none,
    ideal_coin_probability,
    log_partition_function,
    oracle_report,
)
from .record import ValueRecord

SCHEMA_VERSION = 10
# a coverage command holds every repetition in memory, up to ~180 B each
_MAX_REPS = 1_000_000
# sweep and generate build every instance's seed and spec before writing
# anything; a 12-qubit Ising spec holds ~3.6 KB and takes ~0.35 ms to draw
# (2-vCPU x86-64 host), so the cap is ~36 MB and ~3.5 s of specs.  A whole
# n = 12 sweep at the cap, default betas and shots, took ~25 s and 139 MB
# peak RSS (same host)
_MAX_INSTANCES = 10_000
# a noisy sweep simulates and fits one depth per insertion.  At the cap the
# simulation (one seed and one binomial draw per depth, ~22 us) took ~0.22 s
# and the fit of the 10,001 depths 0.05-0.06 s (same host); the whole
# `sweep --n-qubits 4 --instances 1 --xi 0.037` took 0.39-0.48 s and 43 MB
# peak RSS, against 0.16-0.18 s and 36 MB without --xi
_MAX_INSERTIONS = 10_000
# a schedule of l steps takes l + 1 sums over the 2^n eigenvalues.  At the cap,
# n = 12, one 10,000-step size or four of 2,500 took 0.33-0.49 s for the whole
# `fragment` command, against 0.21-0.24 s at the default sizes (same host)
_MAX_SCHEDULE_SIZE = 10_000
# a sweep holds every row in memory until it writes its files.  At the cap,
# 10,000 instances x 40 betas (n = 2, shots 10) wrote 400,040 rows in 25-30 s,
# with 531-536 MB peak RSS and a 72 MB sweep.csv (same host)
_MAX_SWEEP_ROWS = 400_000
# noise-fit writes one curve row per layer from the first depth to the last;
# a row costs ~6 us and ~47 B (same host).  At the cap the command took
# 1.8-2.2 s, 0.5-0.6 s of it the fit, and 89 MB peak RSS, and wrote a
# 4.7 MB curve file
_MAX_DEPTH_SPAN = 100_000
MODELS = ("ising", "qrbm")  # a config's instance models
# the instance counts a model does not read: giving one is an input error
_OTHER_MODEL_COUNTS = {"ising": ("n_visible", "n_hidden"), "qrbm": ("n_qubits",)}
COVERAGE_ALGORITHMS = ("alg1", "alg2", "iterative")  # the estimators of run_coverage


def _numbers(parse):
    return lambda val: tuple(parse(v) for v in val.split(","))


def _at_most(cap, why):
    return (lambda v: v <= cap, f"be <= {cap}: {why}")


# a config file value's grammar: its parser and what the value must be
_TEXT = (str, "text")
_INT = (int, "an integer")
_NUMBER = (float, "a number")
_NUMBERS = (_numbers(float), "a comma-separated list of numbers")
_INTS = (_numbers(int), "a comma-separated list of integers")
# a bound on a config value: its test, and the words after "must" when the
# test fails ("{!r}" in them is the value)
_AT_LEAST_1 = (lambda v: v >= 1, "be >= 1")
_IN_OPEN_UNIT = (lambda v: 0 < v < 1, "be in (0, 1)")
# every config field in constructor order: field -> (default, grammar, *bounds)
_FIELDS = {
    "model": ("ising", _TEXT,
              (lambda v: v in MODELS, f"be {' or '.join(MODELS)}, got {{!r}}")),
    "n_qubits": (4, _INT, _AT_LEAST_1),
    "n_visible": (2, _INT, _AT_LEAST_1),
    "n_hidden": (2, _INT, _AT_LEAST_1),
    "instances": (5, _INT, _AT_LEAST_1, _at_most(
        _MAX_INSTANCES, "every instance is built before any output is written")),
    "betas": ((0.2, 1.0, 2.0, 4.0, 10.0), _NUMBERS, (
        lambda v: v and all(0 <= b < math.inf for b in v),
        "be non-empty, finite and non-negative")),
    "shots": (3000, _INT, _AT_LEAST_1, (
        lambda v: v <= MAX_DRAW_COUNT, f"be <= 2^63 - 1 = {MAX_DRAW_COUNT}: "
        f"the shots of one row are one int64 binomial draw")),
    "delta": (0.05, _NUMBER, _IN_OPEN_UNIT),
    "eps_r": (0.2, _NUMBER, _IN_OPEN_UNIT),
    "xi": (None, _NUMBER, (lambda v: v is None or 0 <= v <= 1, "be in [0, 1]")),
    "layers": (10, _INT, _AT_LEAST_1),
    "insertions": (5, _INT, (lambda v: v >= 0, "be >= 0"), _at_most(
        _MAX_INSERTIONS, "every inserted depth is simulated and fitted")),
    "fit_beta": (0.1, _NUMBER, (lambda v: 0 < v < math.inf, "be positive and finite")),
    "reps": (400, _INT, _AT_LEAST_1, _at_most(
        _MAX_REPS, "a coverage command holds every repetition in memory")),
    # numpy's SeedSequence takes no negative entropy
    "seed": (0, _INT, (lambda v: v >= 0, "be >= 0")),
    "schedule_sizes": ((1, 2, 4, 8), _INTS, (
        lambda v: v and min(v) >= 1, "contain positive sizes"), (
        lambda v: sum(v) <= _MAX_SCHEDULE_SIZE, f"hold at most {_MAX_SCHEDULE_SIZE} steps "
        f"in all: each step sums over all 2^n eigenvalues")),
    # the total error budget of a schedule
    "frag_eps": (1e-6, _NUMBER, (lambda v: 0 < v <= 1, "be in (0, 1]")),
    "frag_successes": (2000, _INT, _AT_LEAST_1),
}


class ExperimentConfig(ValueRecord):
    """Experiment parameters, each with its default, grammar and bounds in ``_FIELDS``.

    ``fields`` is the list of keys a config file may set, in constructor order.
    """

    __slots__ = fields = tuple(_FIELDS)
    __signature__ = inspect.Signature([
        inspect.Parameter(name, inspect.Parameter.POSITIONAL_OR_KEYWORD, default=default)
        for name, (default, *_) in _FIELDS.items()
    ])

    def __init__(self, *args, **kwargs) -> None:
        bound = self.__signature__.bind(*args, **kwargs)
        bound.apply_defaults()
        self._set(**bound.arguments)
        for name, (_, _, *bounds) in _FIELDS.items():
            value = getattr(self, name)
            for test, words in bounds:
                if not test(value):
                    raise ValueError(f"field {name!r} must {words.format(value)}")
        if self.xi is not None and self.insertions < 2:
            raise ValueError("field 'insertions' must be >= 2 when xi is set: the "
                             "noise fit needs 3 depths")
        if self.layers + 2 * self.insertions > MAX_DRAW_COUNT:
            raise ValueError(
                f"field 'layers' must be <= 2^63 - 1 - 2 * insertions = "
                f"{MAX_DRAW_COUNT - 2 * self.insertions}: the noise fit's depths "
                f"layers + 2k are int64"
            )


def _read_input(path: str | Path) -> str:
    """A config, spec or series file's text: UTF-8, one leading BOM dropped."""
    return Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")


def parse_config(text: str) -> dict:
    """Parse the flat config grammar: ``key = value`` lines, ``#`` comments.

    Lists are comma-separated.  Unknown keys are rejected, and so are a
    value that does not parse and a key set twice, naming the line and field.
    """
    values: dict = {}
    set_on: dict[str, int] = {}  # key -> the line that sets it
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _FIELDS:
            raise ValueError(f"config line {lineno}: unknown field {key!r}")
        if set_on.setdefault(key, lineno) != lineno:
            raise ValueError(f"config line {lineno}: field {key!r} is already set "
                             f"on line {set_on[key]}")
        parse, kind = _FIELDS[key][1]
        try:
            values[key] = parse(val)
        except ValueError:
            raise ValueError(f"config line {lineno}: field {key!r} must be {kind}, "
                             f"got {val!r}") from None
    return values


def load_config(path: str | Path | None = None, **overrides) -> ExperimentConfig:
    """Config from an optional file plus keyword overrides (None skipped)."""
    values = parse_config(_read_input(path)) if path is not None else {}
    values.update({k: v for k, v in overrides.items() if v is not None})
    config = ExperimentConfig(**values)
    for name in _OTHER_MODEL_COUNTS[config.model]:
        if name in values:
            raise ValueError(f"field {name!r} does not apply to model {config.model!r}")
    return config


def config_hash(config: ExperimentConfig) -> str:
    """Short provenance hash of the resolved configuration."""
    doc = json.dumps(config.as_dict(), sort_keys=True)
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()[:12]


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (bool, np.bool_, int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def csv_text(columns: tuple[str, ...], rows: list[dict]) -> str:
    """CSV text of ``rows`` under one header; a column a row lacks is empty."""
    lines = [",".join(columns)]
    lines += [",".join(_fmt(row.get(col)) for col in columns) for row in rows]
    return "\n".join(lines) + "\n"


def json_text(doc: dict) -> str:
    """A JSON report as written to a file: indented, keys sorted."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_outputs(out_dir: str | Path, files: dict[str, str]) -> list[Path]:
    """Make ``out_dir``, write each named file's text into it, return the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / name for name in files]
    for path, text in zip(paths, files.values()):
        path.write_text(text, encoding="utf-8")
    return paths


class SeedStream:
    """Sequential deterministic 64-bit seeds derived from a root seed."""

    def __init__(self, root: int):
        self._seq = np.random.SeedSequence(root)

    def next(self) -> int:
        return int(self._seq.spawn(1)[0].generate_state(1)[0])


def _instance_spec(config: ExperimentConfig, instance_seed: int):
    """Random spec of the model that ``config`` names."""
    if config.model == "ising":
        return generate_random_ising_graph(config.n_qubits, instance_seed)
    return generate_random_qrbm(config.n_visible, config.n_hidden, instance_seed)


def run_generate(config: ExperimentConfig, out_dir: str | Path) -> list[Path]:
    """Write ``instance_NNN.json`` per instance, seeded as a sweep's; return paths."""
    seeds = SeedStream(config.seed)
    return write_outputs(out_dir, {
        f"instance_{idx:03d}.json": _instance_spec(config, seeds.next()).to_json() + "\n"
        for idx in range(config.instances)
    })


def run_oracle(spec_path: str | Path | None, config: ExperimentConfig | None,
               betas: tuple[float, ...]) -> str:
    """The exact reference values of one instance at each beta, as JSON text.

    The instance is the spec file at ``spec_path``, else the one ``config``
    names with ``config.seed`` as its instance seed, as a spec file's seed is.
    """
    if spec_path is not None:
        spec = spec_from_json(_read_input(spec_path))
    else:
        spec = _instance_spec(config, config.seed)
    spectrum = unit_spectrum(spec)
    lam = spectrum.norm_bound
    reports = [{"beta": beta, "beta_coin": lam * beta, "norm_bound": lam,
                **oracle_report(spectrum, lam * beta)} for beta in betas]
    return json_text({"kind": "oracle", "reports": reports})


def learn_noise_model(
    config: ExperimentConfig, p_ideal: float, seeds: SeedStream
) -> NoiseFit:
    """Identity-insertion noise learning on a reference circuit.

    Simulates the depth series for the configured xi on the fit circuit,
    whose ideal heads probability is ``p_ideal`` (the sweep passes its
    first instance's at ``fit_beta``), and fits (xi, p) back out.
    """
    depths = identity_insertion_depths(config.layers, config.insertions)
    successes = [
        toss(noisy_success_probability(p_ideal, config.xi, depth), config.shots,
             seeds.next())
        for depth in depths
    ]
    return fit_noise_model(LayerSeries(
        depths=np.array(depths),
        measured_p=np.array(successes) / config.shots,
        shots_per_point=config.shots,
    ))


def _first_beta_coin(config: ExperimentConfig):
    """The set-up of coverage and fragment: the seed stream, the instance seed, the
    unit spectrum, and the coin beta and a drawable heads probability at betas[0]."""
    seeds = SeedStream(config.seed)
    instance_seed = seeds.next()
    spectrum = unit_spectrum(_instance_spec(config, instance_seed))
    beta_coin = spectrum.norm_bound * config.betas[0]
    p = ideal_coin_probability(spectrum, beta_coin)
    if p == 0.0:
        raise ValueError(f"the coin's heads probability underflows to 0 at beta_coin = "
                         f"{beta_coin:.6g}: no head can be drawn")
    return seeds, instance_seed, spectrum, beta_coin, p


def _z_from_p(log_scale: float, p: float) -> float | None:
    """Z = e^log_scale p formed in log space: None past float64, 0.0 at p = 0."""
    return exp_or_none(log_scale + math.log(p)) if p > 0 else 0.0


# noise columns are empty when running noiseless, z columns where float64
# cannot hold Z; averaged rows use instance = "mean"
_SWEEP_COLUMNS = (
    "model", "instance", "instance_seed", "config_hash", "beta", "beta_coin",
    "norm_bound", "z_exact", "p_exact", "shots", "successes", "p_hat",
    "p_hat_sigma", "noisy_successes", "p_noisy_hat", "p_noisy_sigma",
    "p_mitigated", "p_mitigated_sigma", "mitigation_clamped", "z_hat",
    "z_mitigated",
)
# a sweep's "mean" rows average these over instances, and combine these
# standard deviations into the standard deviation of that mean
_MEAN_COLUMNS = ("p_exact", "p_hat", "p_noisy_hat", "p_mitigated")
_SIGMA_COLUMNS = ("p_hat_sigma", "p_noisy_sigma", "p_mitigated_sigma")
_FRAGMENT_COLUMNS = (
    "l", "product_step_p", "p_unfragmented", "product_rel_err",
    "schedule_bound_b1", "expected_queries_per_success",
    "query_bound_any_schedule", "empirical_queries_per_success",
    "success_freq", "attempts", "instance_seed", "config_hash",
)
_SERIES_COLUMNS = ("layers", "successes", "shots")  # noise-fit input
_CURVE_COLUMNS = ("layers", "fitted_p", "band_sigma")  # noise-fit output


def run_sweep(config: ExperimentConfig, out_dir: str | Path) -> dict:
    """Beta sweep over random instances: exact, sampled, noisy, mitigated.

    Writes ``sweep.csv`` and ``sweep_summary.json``; returns the summary.
    """
    n_rows = config.instances * len(config.betas)
    if n_rows > _MAX_SWEEP_ROWS:
        raise ValueError(f"a sweep's rows, instances x len(betas) = {config.instances} x "
                         f"{len(config.betas)} = {n_rows}, must be <= {_MAX_SWEEP_ROWS}: "
                         f"the sweep holds every row in memory")
    chash = config_hash(config)
    seeds = SeedStream(config.seed)
    instance_seeds = [seeds.next() for _ in range(config.instances)]
    specs = [_instance_spec(config, s) for s in instance_seeds]

    rows: list[dict] = []
    per_beta: dict[float, list[dict]] = {}
    fit = None  # learned on instance 0, before any of its tosses
    for idx, (ispec, iseed) in enumerate(zip(specs, instance_seeds)):
        spectrum = unit_spectrum(ispec)
        lam = spectrum.norm_bound
        log_dim = math.log(spectrum.dim)
        if idx == 0 and config.xi is not None:
            p_fit = ideal_coin_probability(spectrum, lam * config.fit_beta)
            fit = learn_noise_model(config, p_fit, seeds)
        for beta in config.betas:
            beta_coin = lam * beta
            p_exact = ideal_coin_probability(spectrum, beta_coin)
            successes = toss(p_exact, config.shots, seeds.next())
            p_hat, _ = ac_estimate(successes, config.shots, config.delta)
            row = {
                "model": config.model, "instance": idx, "instance_seed": iseed,
                "config_hash": chash, "beta": beta, "beta_coin": beta_coin,
                "norm_bound": lam, "p_exact": p_exact, "shots": config.shots,
                "z_exact": exact_partition_function(spectrum, beta_coin),
                "successes": successes, "p_hat": p_hat,
                "p_hat_sigma": math.sqrt(p_hat * (1.0 - p_hat) / config.shots),
                "z_hat": _z_from_p(log_dim + beta_coin, p_hat),
            }
            if fit is not None:
                pbar = noisy_success_probability(p_exact, config.xi, config.layers)
                n_succ = toss(pbar, config.shots, seeds.next())
                p_noisy_hat, _ = ac_estimate(n_succ, config.shots, config.delta)
                p_noisy_sigma = math.sqrt(p_noisy_hat * (1.0 - p_noisy_hat) / config.shots)
                p_mit, p_mit_sigma, clamped = mitigate(
                    p_noisy_hat, p_noisy_sigma, fit.xi, fit.xi_sigma, config.layers
                )
                row.update(
                    noisy_successes=n_succ, p_noisy_hat=p_noisy_hat,
                    p_noisy_sigma=p_noisy_sigma, p_mitigated=p_mit,
                    p_mitigated_sigma=p_mit_sigma, mitigation_clamped=clamped,
                    z_mitigated=_z_from_p(log_dim + beta_coin, p_mit),
                )
            rows.append(row)
            per_beta.setdefault(beta, []).append(row)

    for beta in config.betas:
        group = per_beta[beta]
        k = len(group)
        mean = {"model": config.model, "instance": "mean", "config_hash": chash,
                "beta": beta, "shots": config.shots}
        for col in _MEAN_COLUMNS:
            if col in group[0]:
                mean[col] = sum(r[col] for r in group) / k
        for col in _SIGMA_COLUMNS:
            if col in group[0]:
                mean[col] = math.sqrt(sum(r[col] ** 2 for r in group)) / k
        rows.append(mean)

    summary = {
        "schema_version": SCHEMA_VERSION,
        "kind": "sweep",
        "config": config.as_dict(),
        "config_hash": chash,
        "noise_fit": fit.summary() if fit is not None else None,
        "rows": len(rows),
    }
    write_outputs(out_dir, {
        "sweep.csv": csv_text(_SWEEP_COLUMNS, rows),
        "sweep_summary.json": json_text(summary),
    })
    return summary


def run_coverage(config: ExperimentConfig, algorithm: str,
                 out_dir: str | Path) -> dict:
    """Repeat an estimator and report the fraction hitting its relative target.

    The study runs at ``config.betas[0]`` only; any further betas are
    ignored.  All ``config.reps`` repetitions come from one estimator call on one
    generator, seeded from the stream's next seed after the instance's.
    Z is written in log space, and linearly (``z_exact``, ``theory.z_max``)
    where float64 holds it, otherwise as null (``exp_or_none``).
    """
    if algorithm not in COVERAGE_ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    seeds, _, spectrum, beta_coin, p = _first_beta_coin(config)
    seed = seeds.next()
    log_z_exact = log_partition_function(spectrum, beta_coin)

    theory: dict = {}
    if algorithm == "alg1":
        budget = sample_count_thm1(p, config.eps_r, config.delta)
        theory["sample_count"] = budget
    elif algorithm == "alg2":
        budget = success_count_thm2(config.eps_r, config.delta)
        theory["success_count"] = budget
        theory["expected_total_tosses"] = expected_total_tosses_thm2(
            p, config.eps_r, config.delta
        )
    else:
        log_z_max = math.log(spectrum.dim) + beta_coin
        theory["log_z_max"] = log_z_max
        theory["z_max"] = exp_or_none(log_z_max)

    q = query_cost(beta_coin, 0.0)  # the ideal coin's queries per toss
    if algorithm == "alg1":
        est = algorithm1(p, q, budget, config.delta, seed, config.reps)
    elif algorithm == "alg2":
        est = algorithm2(p, q, budget, seed, config.reps)
    else:
        est = relative_from_additive(
            make_additive_runner(p, q, seed), config.eps_r, config.delta, config.reps
        )
    hits = int(np.count_nonzero(np.abs(est.value - p) <= config.eps_r * p))

    report = {
        "schema_version": SCHEMA_VERSION,
        "kind": "coverage",
        "algorithm": algorithm,
        "config_hash": config_hash(config),
        "beta": config.betas[0],
        "beta_coin": beta_coin,
        "z_exact": exp_or_none(log_z_exact),
        "log_z_exact": log_z_exact,
        "reps": config.reps,
        "coverage": hits / config.reps,
        "eps_r": config.eps_r,
        "delta": config.delta,
        "mean_samples": est.samples_used / config.reps,
        "mean_queries": est.queries_used / config.reps,
        "theory": theory,
    }
    if est.rounds is not None:
        report["rounds"] = {
            "median": float(np.median(est.rounds)),
            "min": int(est.rounds.min()),
            "max": int(est.rounds.max()),
        }
    write_outputs(out_dir, {f"coverage_{algorithm}.json": json_text(report)})
    return report


def read_layer_series(path: str | Path) -> LayerSeries:
    """Read a depth series CSV with columns (layers, successes, shots)."""
    lines = _read_input(path).splitlines()
    header = next((i for i, line in enumerate(lines) if line.strip()), None)
    if header is None or lines[header].strip().lower() != ",".join(_SERIES_COLUMNS):
        raise ValueError("series CSV must start with header 'layers,successes,shots'")
    depths: list[int] = []
    measured: list[float] = []
    shots_seen: set[int] = set()
    for lineno, line in enumerate(lines[header + 1:], start=header + 2):
        if not line.strip():
            continue
        try:
            layers, succ, shots = (int(cell) for cell in line.split(","))
        except ValueError:  # a cell that is no integer, or too few or too many
            raise ValueError(f"series line {lineno}: expected the integer fields "
                             f"{','.join(_SERIES_COLUMNS)}") from None
        if layers > MAX_DRAW_COUNT:  # LayerSeries holds int64 depths
            raise ValueError(f"series line {lineno}: layers = {layers} exceeds 2^63 - 1")
        if layers < 1:
            raise ValueError(f"series line {lineno}: layers = {layers} must be >= 1")
        if depths and layers <= depths[-1]:
            raise ValueError(f"series line {lineno}: layers = {layers} must exceed the "
                             f"previous row's {depths[-1]}")
        depths.append(layers)
        if shots < 1:
            raise ValueError(f"series line {lineno}: shots = {shots} must be >= 1")
        if shots > MAX_DRAW_COUNT:  # the config's shots cap: a row's shots are int64
            raise ValueError(f"series line {lineno}: shots must be <= 2^63 - 1")
        if not 0 <= succ <= shots:
            raise ValueError(f"series line {lineno}: successes {succ} outside [0, {shots}]")
        shots_seen.add(shots)
        measured.append(succ / shots)
    if not depths:
        raise ValueError("series CSV has no rows after its header")
    if len(shots_seen) != 1:
        raise ValueError("all series rows must use the same shot count")
    if depths[-1] - depths[0] > _MAX_DEPTH_SPAN:
        raise ValueError(f"series depths must span at most {_MAX_DEPTH_SPAN} "
                         f"layers: the fitted curve has one row per layer")
    return LayerSeries(
        depths=np.array(depths), measured_p=np.array(measured),
        shots_per_point=shots_seen.pop(),
    )


def run_noise_fit(series_path: str | Path, out_dir: str | Path) -> dict:
    """Fit a depth-series CSV; write the report and a fitted-curve table."""
    series = read_layer_series(series_path)
    fit = fit_noise_model(series)
    report = {**fit.summary(), "schema_version": SCHEMA_VERSION, "kind": "noise_fit"}
    depths = np.arange(int(series.depths[0]), int(series.depths[-1]) + 1)
    fitted, band = fitted_curve(fit, depths)
    curve = [{"layers": d, "fitted_p": f, "band_sigma": s}
             for d, f, s in zip(depths, fitted, band)]
    write_outputs(out_dir, {
        "noise_fit.json": json_text(report),
        "noise_fit_curve.csv": csv_text(_CURVE_COLUMNS, curve),
    })
    return report


def run_fragment(config: ExperimentConfig, out_dir: str | Path) -> dict:
    """Fragmented-coin cost study across schedule sizes.

    The study runs at ``config.betas[0]`` only; any further betas are
    ignored (the default config's five betas give a run at 0.2).
    """
    chash = config_hash(config)
    seeds, instance_seed, spectrum, beta_coin, p_full = _first_beta_coin(config)
    rows = []
    for l in config.schedule_sizes:
        schedule = uniform_schedule(spectrum, beta_coin, l, config.frag_eps)
        step_p = schedule.step_probabilities
        product = math.prod(step_p)
        run = toss_fragmented(schedule, config.frag_successes, seeds.next())
        b = -math.log2(min(step_p)) if min(step_p) < 1.0 else 1.0
        rows.append({
            "l": l,
            "product_step_p": product,
            "p_unfragmented": p_full,
            "product_rel_err": abs(product - p_full) / p_full,
            "schedule_bound_b1": schedule_size_lower_bound(p_full, b),
            "expected_queries_per_success": expected_queries_per_success(schedule),
            "query_bound_any_schedule": fragmented_query_bound(schedule),
            "empirical_queries_per_success": run.queries_per_success,
            "success_freq": run.successes / run.attempts,
            "attempts": run.attempts,
            "instance_seed": instance_seed,
            "config_hash": chash,
        })
    summary = {
        "schema_version": SCHEMA_VERSION,
        "kind": "fragment",
        "config_hash": chash,
        "beta": config.betas[0],
        "beta_coin": beta_coin,
        "schedule_sizes": list(config.schedule_sizes),
    }
    write_outputs(out_dir, {
        "fragment.csv": csv_text(_FRAGMENT_COLUMNS, rows),
        "fragment_summary.json": json_text(summary),
    })
    return summary
