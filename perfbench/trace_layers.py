"""Spans around the calls into each qcoin layer, and the per-layer metrics built from them.

``Tracer`` runs inside the driver process.  It replaces each public function
listed in WRAPPED with a timing wrapper in every qcoin module that holds a
reference to it: the package imports names directly (``from .coin import
toss``), so patching only the defining module would miss most calls.  The
spans stay in memory as ``[name, start_ns, end_ns, parent_index, extra]``;
index 0 is the root span of the process.  ``layer_metrics`` runs in the
benchmark process and turns the spans of one workload iteration into the
per-layer metrics.

Functions that a refactor removes are skipped, so their metrics read 0.
"""

from __future__ import annotations

import functools
import sys
import time

LAYERS = ("cli", "experiments", "hamiltonian", "propagator", "oracle", "coin",
          "estimators", "noise")

# (module, attribute, span name); the span name's prefix is the layer.
WRAPPED = (
    ("qcoin.hamiltonian", "build_hamiltonian", "hamiltonian.build"),
    ("qcoin.hamiltonian", "rescale_to_unit_spectrum", "hamiltonian.build"),
    ("qcoin.hamiltonian", "generate_random_ising_graph", "hamiltonian.generate"),
    ("qcoin.hamiltonian", "generate_random_qrbm", "hamiltonian.generate"),
    ("qcoin.oracle", "exact_partition_function", "oracle.partition"),
    ("qcoin.oracle", "oracle_report", "oracle.report"),
    ("qcoin.propagator", "required_degree", "propagator.required_degree"),
    ("qcoin.coin", "success_probability", "coin.success_probability"),
    ("qcoin.coin", "toss", "coin.toss"),
    ("qcoin.coin", "toss_fragmented", "coin.frag"),
    ("qcoin.coin", "step_success_probability", "coin.step_probability"),
    ("qcoin.coin", "query_cost", "coin.query_cost"),
    ("qcoin.coin", "uniform_schedule", "coin.schedule"),
    ("qcoin.coin", "expected_queries_per_success", "coin.bounds"),
    ("qcoin.coin", "fragmented_query_bound", "coin.bounds"),
    ("qcoin.coin", "schedule_size_lower_bound", "coin.bounds"),
    ("qcoin.estimators", "algorithm1", "estimators.alg1"),
    ("qcoin.estimators", "algorithm2", "estimators.alg2"),
    ("qcoin.estimators", "relative_from_additive", "estimators.iterative"),
    ("qcoin.estimators", "make_additive_runner", "estimators.make_runner"),
    ("qcoin.estimators", "ac_estimate", "estimators.ac_estimate"),
    ("qcoin.estimators", "sample_count_thm1", "estimators.budget"),
    ("qcoin.estimators", "success_count_thm2", "estimators.budget"),
    ("qcoin.estimators", "expected_total_tosses_thm2", "estimators.budget"),
    ("qcoin.noise", "fit_noise_model", "noise.fit"),
    ("qcoin.noise", "simulate_noisy_tosses", "noise.simulate"),
    ("qcoin.noise", "identity_insertion_depths", "noise.simulate"),
    ("qcoin.noise", "mitigate", "noise.mitigate"),
    ("qcoin.noise", "propagate_uncertainty", "noise.mitigate"),
    ("qcoin.noise", "noisy_success_probability", "noise.forward"),
    ("qcoin.experiments", "run_sweep", "experiments.sweep"),
    ("qcoin.experiments", "run_coverage", "experiments.coverage"),
    ("qcoin.experiments", "run_noise_fit", "experiments.noise_fit"),
    ("qcoin.experiments", "run_fragment", "experiments.fragment"),
)

ROOT = "cli.driver"
_clock = time.monotonic_ns


def _toss_count(args, kwargs):
    return args[1] if len(args) > 1 else kwargs.get("count", 0)


def _estimate_counts(result, _state):
    est = result[0] if isinstance(result, tuple) else result
    return [est.samples_used, est.queries_used]


class Tracer:
    """Records nested spans around the wrapped qcoin functions of one process."""

    def __init__(self, start_ns: int):
        self.spans: list[list] = [[ROOT, start_ns, 0, -1, None]]
        self._stack = [0]

    def _wrap(self, fn, name, pre=None, post=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0, 0, stack[-1], None]
            stack.append(len(spans))
            spans.append(span)
            state = pre(args, kwargs) if pre else None
            span[1] = _clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span[2] = _clock()
                span[4] = "raised"
                raise
            finally:
                stack.pop()
            span[2] = _clock()
            if post:
                span[4] = post(result, state)
            if name == "estimators.make_runner":
                return self._wrap(result, "estimators.runner",
                                  post=lambda est, _s: est.samples_used)
            return result

        return wrapper

    def _hooks(self, name, fn):
        if name == "coin.toss":
            return _toss_count, lambda _r, count: count
        if name == "coin.frag":
            return None, lambda run, _s: [run.attempts, run.successes]
        if name == "propagator.required_degree" and hasattr(fn, "cache_info"):
            return (lambda a, k: fn.cache_info().hits,
                    lambda _r, hits: int(fn.cache_info().hits > hits))
        if name == "noise.fit":
            return None, lambda fit, _s: fit.iterations
        if name in ("estimators.alg1", "estimators.alg2", "estimators.iterative"):
            return None, _estimate_counts
        return None, None

    def install(self) -> None:
        for module_name, attr, name in WRAPPED:
            module = sys.modules.get(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            pre, post = self._hooks(name, fn)
            wrapper = self._wrap(fn, name, pre, post)
            for key, mod in list(sys.modules.items()):
                if key == "qcoin" or key.startswith("qcoin."):
                    for ref_name, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, ref_name, wrapper)
        cls = getattr(sys.modules.get("qcoin.hamiltonian"), "Hamiltonian", None)
        if cls is not None and hasattr(cls, "eigensystem"):
            cls.eigensystem = self._wrap(
                cls.eigensystem, "hamiltonian.eigensystem",
                pre=lambda a, k: int(getattr(a[0], "eigen_cache", None) is None),
                post=lambda _r, fresh: fresh,
            )

    def finish(self) -> list[list]:
        self.spans[0][2] = _clock()
        return self.spans


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(runs: list[list[list]], output_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one workload iteration from the spans of its runs.

    A span's self time is its duration minus its direct children's.  Times
    named ``<function>_s`` are self times; ``experiments.<command>_s`` is the
    whole command span.  A ratio with a zero base reads 0.
    """
    calls: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    total_ns: dict[str, int] = {}
    extras: dict[str, list] = {}
    final_round: list[float] = []
    spans_seen = 0
    for spans in runs:
        spans_seen += len(spans)
        child_ns = [0] * len(spans)
        last_runner: dict[int, int] = {}
        for name, start, end, parent, extra in spans:
            if parent >= 0:
                child_ns[parent] += end - start
                if name == "estimators.runner":
                    last_runner[parent] = extra
        for idx, (name, start, end, parent, extra) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + (end - start) - child_ns[idx]
            total_ns[name] = total_ns.get(name, 0) + (end - start)
            extras.setdefault(name, []).append(extra)
            if name == "estimators.iterative" and isinstance(extra, list):
                final_round.append(_ratio(last_runner.get(idx, 0), extra[0]))

    def n(name):
        return calls.get(name, 0)

    def s(*names):
        return sum(self_ns.get(x, 0) for x in names) / 1e9

    def values(name):
        return [e for e in extras.get(name, []) if isinstance(e, (int, list))]

    total_s = total_ns.get(ROOT, 0) / 1e9
    tosses = sum(values("coin.toss"))
    frag = values("coin.frag")
    frag_attempts = sum(a for a, _ in frag)
    estimates = values("estimators.alg1") + values("estimators.alg2") + values(
        "estimators.iterative")
    eig_fresh = sum(values("hamiltonian.eigensystem"))
    degree_hits = sum(values("propagator.required_degree"))
    layer_s = {
        layer: sum(v for k, v in self_ns.items() if k.split(".")[0] == layer) / 1e9
        for layer in LAYERS
    }
    m = {
        "hamiltonian.build_calls": n("hamiltonian.build"),
        "hamiltonian.build_s": s("hamiltonian.build"),
        "hamiltonian.eigensystem_calls": n("hamiltonian.eigensystem"),
        "hamiltonian.eigensystem_fresh": eig_fresh,
        "hamiltonian.eigensystem_s": s("hamiltonian.eigensystem"),
        "hamiltonian.eigensystem_hit_ratio": _ratio(
            n("hamiltonian.eigensystem") - eig_fresh, n("hamiltonian.eigensystem")),
        "hamiltonian.eigensystem_share": _ratio(s("hamiltonian.eigensystem"), total_s),
        "coin.toss_calls": n("coin.toss"),
        "coin.tosses": tosses,
        "coin.toss_s": s("coin.toss"),
        "coin.toss_ns_per_toss": _ratio(self_ns.get("coin.toss", 0), tosses),
        # float64 uniform draw + bool outcome + int64 query cost per toss
        "coin.toss_bytes": 17 * tosses,
        "coin.toss_share": _ratio(s("coin.toss"), total_s),
        "coin.success_probability_calls": n("coin.success_probability"),
        "coin.success_probability_s": s("coin.success_probability"),
        "coin.step_probability_calls": n("coin.step_probability"),
        "coin.step_probability_s": s("coin.step_probability"),
        "coin.frag_calls": n("coin.frag"),
        "coin.frag_attempts": frag_attempts,
        "coin.frag_s": s("coin.frag"),
        "coin.frag_us_per_attempt": _ratio(self_ns.get("coin.frag", 0) / 1e3,
                                           frag_attempts),
        "coin.frag_success_ratio": _ratio(sum(k for _, k in frag), frag_attempts),
        "coin.frag_share": _ratio(s("coin.frag"), total_s),
        "estimators.alg1_calls": n("estimators.alg1"),
        "estimators.alg1_s": s("estimators.alg1"),
        "estimators.alg2_calls": n("estimators.alg2"),
        "estimators.alg2_s": s("estimators.alg2"),
        "estimators.iterative_calls": n("estimators.iterative"),
        "estimators.iterative_s": s("estimators.iterative"),
        "estimators.runner_calls": n("estimators.runner"),
        "estimators.runner_s": s("estimators.runner"),
        "estimators.samples": sum(e[0] for e in estimates),
        "estimators.queries": sum(e[1] for e in estimates),
        "estimators.final_round_share": _ratio(sum(final_round), len(final_round)),
        "oracle.partition_calls": n("oracle.partition"),
        "oracle.partition_s": s("oracle.partition"),
        "propagator.required_degree_calls": n("propagator.required_degree"),
        "propagator.required_degree_s": s("propagator.required_degree"),
        "propagator.required_degree_hit_ratio": _ratio(
            degree_hits, n("propagator.required_degree")),
        "noise.fit_calls": n("noise.fit"),
        "noise.fit_s": s("noise.fit"),
        "noise.fit_iterations": sum(values("noise.fit")),
        "noise.fit_failures": extras.get("noise.fit", []).count("raised"),
        "experiments.sweep_s": total_ns.get("experiments.sweep", 0) / 1e9,
        "experiments.coverage_s": total_ns.get("experiments.coverage", 0) / 1e9,
        "experiments.noise_fit_s": total_ns.get("experiments.noise_fit", 0) / 1e9,
        "experiments.fragment_s": total_ns.get("experiments.fragment", 0) / 1e9,
        "experiments.output_bytes": output_bytes,
        "trace.total_s": total_s,
        "trace.spans": spans_seen,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_s[layer]
        m[f"{layer}.self_share"] = _ratio(layer_s[layer], total_s)
    return m
