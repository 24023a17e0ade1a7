"""qcoin benchmark: run a workload through the qcoin CLI, check its outputs, report metrics.

    python3 perfbench/run.py --workload sweep-dense --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --smoke

Run from the root of a qcoin checkout; qcoin is imported from its ``src``.
Set-up samples a few import-only driver processes, then the workload's
iterations run until the next one would overrun ``--seconds``.  The
benchmark and its drivers are pinned to one CPU, and the end-to-end times
are scaled to a reference speed of that CPU measured during the run (see
``Pacer``); the result files also keep them as measured, under ``raw_metrics``.
With ``--trace 0`` the last line of output is the end-to-end result and
with ``--trace 1`` the per-layer result (span times as measured), each as
one JSON object; the lines before it give the same numbers with units,
``fail_frac``, the raw times and the machine.
Inputs, outputs, results and spans go to ``perfbench/_work``.  ``--smoke``
runs every workload at toy size in both modes and checks that every metric
in BENCHMARK.json is reported with its unit and that nothing failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
DRIVER = HERE / "driver.py"
SPEC = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ALLOWED_CPUS = sorted(os.sched_getaffinity(0))

# One BLAS thread: on a shared 2-vCPU x86-64 host, two threads spread a
# sweep's wall time over four runs by 18% and one thread by 4%.
for _name in BLAS_ENV:
    os.environ[_name] = str(SPEC["blas_threads"])


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _load_program():
    if not (SRC / "qcoin" / "cli.py").is_file():
        raise BenchError(f"no qcoin sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qcoin

    if Path(qcoin.__file__).resolve().parent != SRC / "qcoin":
        raise BenchError(f"imported qcoin from {qcoin.__file__}, not from {SRC}")


def _median(values):
    return statistics.median(values) if values else 0.0


def _steal_ticks():
    """CPU time stolen by the hypervisor, in clock ticks, from /proc/stat (None if unreadable)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def _blas_threads():
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(ALLOWED_CPUS),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ[k] for k in BLAS_ENV},
        "clock_ticks_per_s": os.sysconf("SC_CLK_TCK"),
    }


def spawn(cli_args: list[str], traced: bool, tag: str) -> dict:
    """Run one driver process; wall, set-up, CPU and peak RSS as the kernel reports them."""
    stamp = WORK / f"{tag}.stamp.json"
    stamp.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(WORK / f"{tag}.log", "w", encoding="utf-8") as log:
        start = time.monotonic_ns()
        proc = subprocess.Popen(
            [sys.executable, str(DRIVER), str(stamp), "1" if traced else "0", *cli_args],
            cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.monotonic_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    sample = {"code": proc.returncode, "wall_s": (end - start) / 1e9,
              "cpu_s": usage.ru_utime + usage.ru_stime,
              "peak_rss_mb": usage.ru_maxrss / 1024.0, "setup_s": None, "spans": None}
    if stamp.is_file():
        doc = json.loads(stamp.read_text(encoding="utf-8"))
        if Path(doc["qcoin_file"]).resolve().parent != SRC / "qcoin":
            raise BenchError(f"driver imported qcoin from {doc['qcoin_file']}")
        sample["setup_s"] = (doc["imported_ns"] - start) / 1e9
        sample["spans"] = doc["spans"]
    elif proc.returncode == 0:
        raise BenchError(f"driver wrote no stamp; see {WORK / (tag + '.log')}")
    return sample


class Pacer:
    """Tracks the speed of the CPU that the benchmark and its drivers are pinned to.

    On a shared host the same work runs up to twice as slow at some moments
    as at others (a busy hyperthread sibling, say), in spells of seconds to
    minutes, and that spread swamps the run-to-run differences the benchmark
    exists to show.  A background thread of the benchmark process, pinned to
    the drivers' CPU, runs a fixed probe every ``interval_s`` and records its
    thread CPU time, which contention inflates the way it inflates the
    drivers'.  Each kind of probe is a small copy of one workload's hot loop,
    written without qcoin, so that it slows down as that loop does.  A time measured over [t0, t1] is scaled by ``ref_s`` / the
    mean probe of that window: the time it would have taken at the probe
    speed ``ref_s``.  The mean, not the median, because a driver's time grows
    with the share of the window spent slow.  The probe takes about 2% of the
    CPU.
    """

    def __init__(self, kind: str, ref_s: float, interval_s: float):
        import numpy as np

        self.ref_s, self.interval_s = ref_s, interval_s
        self.samples: list[tuple[int, float]] = []
        rng = np.random.default_rng(0)
        a = rng.standard_normal((96, 96)) + 1j * rng.standard_normal((96, 96))
        self._matrix = a + a.conj().T
        self._kernel = {"lapack": self._lapack, "sampling": self._sampling,
                        "interpreter": self._interpreter}[kind]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _lapack(self):
        """Dense Hermitian eigendecomposition, reconstruction and 2-norm, as a sweep does."""
        import numpy as np

        w, v = np.linalg.eigh(self._matrix)
        np.linalg.norm((v * w) @ v.conj().T - self._matrix, ord=2)

    def _sampling(self):
        """Uniform draws compared with p, plus the per-draw cost array, as coin.toss does."""
        import numpy as np

        for _ in range(12):
            (np.random.default_rng(1).random(40_000) < 0.00625).sum()
            np.full(40_000, 24, dtype=np.int64).sum()

    def _interpreter(self):
        """A Python loop of short numpy slices and comparisons, as the fragmented coin runs."""
        import numpy as np

        block = np.random.default_rng(1).random(4096)
        probs = np.full(8, 0.53)
        outcomes, used = [], 0
        for _ in range(1200):
            failed = np.nonzero(block[used:used + 8] >= probs)[0]
            used = (used + (8 if len(failed) == 0 else int(failed[0]) + 1)) % 4000
            outcomes.append(len(failed) == 0)

    def probe(self) -> float:
        """Thread CPU seconds of one run of the kernel."""
        start = time.thread_time()
        self._kernel()
        return time.thread_time() - start

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.samples.append((time.monotonic_ns(), self.probe()))

    def __enter__(self) -> "Pacer":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def factor(self, start_ns: int = 0, end_ns: int = 2**63) -> float:
        """ref_s over the mean probe in the window (the whole run if it holds under 3)."""
        samples = list(self.samples)
        window = [p for t, p in samples if start_ns <= t <= end_ns]
        if len(window) < 3:
            window = [p for _, p in samples]
        return self.ref_s / statistics.fmean(window) if window else 1.0


def _output_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


def run_iteration(plan, traced: bool, tag: str, pacer: Pacer) -> dict:
    """One pass over the workload's commands; checks every record written.

    Times are scaled by the pacer's factor over the iteration; ``raw`` keeps
    them as measured.
    """
    from trace_layers import layer_metrics

    attempted = failed = 0
    samples, span_runs, out_bytes = [], [], 0
    start_ns = time.monotonic_ns()
    for idx, cmd in enumerate(plan.commands):
        cmd.reset()
        sample = spawn(cmd.args, traced, f"{tag}.cmd{idx}")
        samples.append(sample)
        results = [False] * cmd.records
        if sample["code"] == 0:
            try:
                results = cmd.check(cmd.out)
            except Exception:  # a malformed output fails its records; keep measuring
                with open(WORK / f"{tag}.cmd{idx}.log", "a", encoding="utf-8") as log:
                    traceback.print_exc(file=log)
            out_bytes += _output_bytes(cmd.out)
        attempted += 1 + cmd.records
        failed += (sample["code"] != 0) + results.count(False)
        if traced and sample["spans"]:
            span_runs.append(sample["spans"])
    pace = pacer.factor(start_ns, time.monotonic_ns())
    wall = sum(s["wall_s"] for s in samples)
    setup = sum(s["setup_s"] or 0.0 for s in samples)
    cpu = sum(s["cpu_s"] for s in samples)
    it = {
        "traced": traced, "attempted": attempted, "failed": failed,
        "wall_s": wall * pace, "cpu_s": cpu * pace,
        "peak_rss_mb": max(s["peak_rss_mb"] for s in samples),
        "work_per_s": plan.units / ((wall - setup) * pace),
        "pace": pace,
        "raw": {"wall_s": wall, "cpu_s": cpu, "work_per_s": plan.units / (wall - setup)},
        "setup_samples": [s["setup_s"] for s in samples if s["setup_s"] is not None],
        "commands": [{k: s[k] for k in ("code", "wall_s", "cpu_s", "peak_rss_mb", "setup_s")}
                     for s in samples],
    }
    if traced:
        it["layers"] = layer_metrics(span_runs, out_bytes)
        it["span_runs"] = span_runs
    return it


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    from workloads import WORKLOADS

    work = WORK / f"{name}-seed{seed}"
    work.mkdir(parents=True, exist_ok=True)
    plan = WORKLOADS[name](seed, SPEC["workloads"][name]["inputs"][size], work)
    env = environment()
    # The drivers, the pacer and this process share one CPU (see Pacer).
    os.sched_setaffinity(0, {ALLOWED_CPUS[-1]})
    env["pinned_cpus"] = sorted(os.sched_getaffinity(0))
    sys.setswitchinterval(1e-4)  # the pacer thread must not delay a driver's end stamp
    steal_before = _steal_ticks()

    probe = SPEC["workloads"][name]["probe"]
    with Pacer(probe["kind"], probe["ref_s"], SPEC["probe_interval_s"]) as pacer:
        # Set-up: one untimed import to warm caches, then timed import-only spawns.
        setup_samples = []
        for i in range(SPEC["setup_spawns"] + 1):
            sample = spawn([], False, f"{name}.setup")
            if sample["code"] != 0:
                raise BenchError(f"qcoin does not import; see {WORK / (name + '.setup.log')}")
            if i:
                setup_samples.append(sample["setup_s"])

        iterations = []
        start = time.monotonic()
        while True:
            traced = trace and len(iterations) % 2 == 1
            iterations.append(run_iteration(plan, traced, name, pacer))
            elapsed = time.monotonic() - start
            per_iteration = elapsed / len(iterations)
            if len(iterations) >= (2 if trace else 1) and elapsed + per_iteration > seconds:
                break
    steal_after = _steal_ticks()

    untraced = [it for it in iterations if not it["traced"]]
    traced_its = [it for it in iterations if it["traced"]]
    attempted = sum(it["attempted"] for it in iterations)
    failed = sum(it["failed"] for it in iterations)
    setup_samples += [s for it in untraced for s in it["setup_samples"]]
    if trace:
        names = traced_its[0]["layers"].keys()
        # median_low keeps counts whole: each value is one traced iteration's
        metrics = {k: statistics.median_low([it["layers"][k] for it in traced_its])
                   for k in names}
        metrics["trace.overhead_s"] = (_median([it["wall_s"] for it in traced_its])
                                       - _median([it["wall_s"] for it in untraced]))
    else:
        metrics = {k: _median([it[k] for it in untraced])
                   for k in ("wall_s", "cpu_s", "peak_rss_mb", "work_per_s")}
        metrics["setup_s"] = _median(setup_samples) * pacer.factor()
    raw = {k: _median([it["raw"][k] for it in untraced]) for k in untraced[0]["raw"]}
    raw["setup_s"] = _median(setup_samples)
    env["steal_ticks"] = (None if steal_before is None or steal_after is None
                          else steal_after - steal_before)
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "size": size, "units_per_iteration": plan.units,
        "iterations": len(untraced), "traced_iterations": len(traced_its),
        "setup_samples": len(setup_samples),
        "attempted": attempted, "failed": failed, "fail_frac": failed / attempted,
        "metrics": metrics, "env": env,
        "pace": pacer.factor(), "probes": len(pacer.samples), "raw_metrics": raw,
        "raw": [{k: v for k, v in it.items() if k != "span_runs"} for it in iterations],
    }
    (WORK / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=1) + "\n", encoding="utf-8")
    if trace:
        spans = [{"iteration": i, "run": r, "spans": spans}
                 for i, it in enumerate(iterations) if it["traced"]
                 for r, spans in enumerate(it["span_runs"])]
        (WORK / f"spans-{name}.json").write_text(json.dumps(spans) + "\n", encoding="utf-8")
    return result


def _units() -> dict[str, str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc["end_to_end"] + doc["per_layer"]}


def report(result: dict) -> dict:
    """Print the metrics with units; return the result line."""
    units = _units()
    print(f"workload {result['workload']} seed {result['seed']} trace {result['trace']}: "
          f"{result['iterations']} iterations, {result['traced_iterations']} traced, "
          f"{result['setup_samples']} set-up samples, "
          f"{result['units_per_iteration']} units of work per iteration")
    for key, value in result["metrics"].items():
        print(f"  {key:40s} {value:>16.6g} {units.get(key, '?')}")
    print(f"  {'fail_frac':40s} {result['fail_frac']:>16.6g} 1 "
          f"({result['failed']} of {result['attempted']} operations)")
    print(f"  as measured, before scaling by the pace factor {result['pace']:.4f} "
          f"({result['probes']} probes):")
    for key, value in result["raw_metrics"].items():
        print(f"    {key:38s} {value:>16.6g} {units.get(key, '?')}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in result["metrics"].items() if k in units},
    }


def smoke() -> int:
    """Toy-size run of every workload in both modes against BENCHMARK.json."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    mapped = {m for group in SPEC["layer_to_end_to_end"] for m in group["metrics"]}
    problems = []
    if mapped != {m["name"] for m in doc["per_layer"]}:
        problems.append("spec.json layer mapping does not cover exactly the per-layer metrics")
    if {w["name"] for w in doc["workloads"]} != set(SPEC["workloads"]):
        problems.append("BENCHMARK.json and spec.json name different workloads")
    for workload in SPEC["workloads"]:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            line = report(run_workload(workload, 1, 1, trace, size="smoke"))
            want = {m["name"]: m["unit"] for m in doc[key]}
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            if got != want:
                problems.append(f"{workload} trace {int(trace)}: metrics differ from "
                                f"BENCHMARK.json {key}: {sorted(set(want) ^ set(got))}")
            if line["failed"] or not line["correct"]:
                problems.append(f"{workload} trace {int(trace)}: fail_frac "
                                f"{line['failed']}/{line['attempted']}")
    for problem in problems:
        print("smoke: " + problem, file=sys.stderr)
    print("smoke " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*SPEC["workloads"], "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    try:
        _load_program()
        WORK.mkdir(exist_ok=True)
        if args.smoke:
            return smoke()
        names = list(SPEC["workloads"]) if args.workload == "all" else [args.workload]
        lines = [report(run_workload(n, args.seed, args.seconds, bool(args.trace)))
                 for n in names]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
