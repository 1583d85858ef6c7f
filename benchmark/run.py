"""Benchmark of cgexact, driven through the package's public functions.

Run from the repository root:

    python3 benchmark/run.py --workload table --seed 1 --seconds 30 --trace 0
    python3 benchmark/run.py --workload all --seed 1 --seconds 30 --trace 1

One process runs one workload (``all`` runs each in a fresh process) as a
closed loop with one caller: each operation starts when the previous one
returns.  With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it runs the same passes once plainly and once traced, and
reports the per-layer metrics and the tracing overhead.  The last line of
standard output is one JSON object; the lines above it name every metric
with its unit, and the full record (with the spans of a traced run) goes to
``.bench_out/``.  See NOTES.md for why each workload and metric is there.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("table", "verify", "coeff")
#: fresh processes started per run to time set-up; the median is reported
SETUP_PROBES = 9
#: calibration units timed before and after each pass and each set-up probe
CALIBRATION_UNITS = 10
#: wall seconds between the calibration units timed while a pass runs
CALIBRATION_INTERVAL_S = 0.05
#: nominal time of one calibration unit (each unit takes 0.25-0.35 ms on a
#: quiet 2-CPU x86-64 VM with Python 3.11); times are reported at this speed
CALIBRATION_REFERENCE_S = 0.3e-3
LOAD_MODEL = (
    "closed loop, one caller, one process per workload, jobs=1; the "
    "multiprocessing fan-out of verification._map_ordered (jobs > 1) is "
    "not measured"
)


def load_package():
    """Import cgexact from this checkout's sources, never from elsewhere."""
    package = ROOT / "src" / "cgexact"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no cgexact sources at {package}")
    sys.path.insert(0, str(package.parent))
    import cgexact
    import cgexact.cli  # noqa: F401  (the table workload renders through it)

    if Path(cgexact.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported cgexact from {cgexact.__file__}")


# ---------------------------------------------------------------------------
# Running passes
# ---------------------------------------------------------------------------


@dataclass
class OpResult:
    label: str
    key: object
    seconds: float  # wall time
    scaled: float  # wall time at the reference host speed
    work: int
    error: str | None = None  # exception or gate message; None when the op passed
    wrong: bool = False  # the gate rejected an output


@dataclass
class Measured:
    """Everything one series of passes produced."""

    passes: list = field(default_factory=list)
    results: list[OpResult] = field(default_factory=list)
    peak_int_bits: int = 0
    #: cache name -> [hits, misses, largest size], summed over passes
    caches: dict[str, list[int]] = field(default_factory=dict)

    @property
    def scaled(self) -> float:
        return sum(r.scaled for r in self.results)

    @property
    def failed(self) -> int:
        return sum(r.error is not None for r in self.results)


def _cache_functions() -> dict[str, list]:
    """The package's coefficient caches, by the layer that owns them."""
    from cgexact import formulas, ladder

    found = {
        "formulas.norm_sum_cache": [getattr(formulas, "_norm_denominator_sum", None)],
        "ladder.element_cache": [
            getattr(ladder, "_lowering_element", None),
            getattr(ladder, "_raising_element", None),
        ],
    }
    return {name: [f for f in fns if hasattr(f, "cache_info")] for name, fns in found.items()}


def _peak_bits(values) -> int:
    peak = 0
    for value in values:
        for kernel, coeff in value.terms():
            peak = max(
                peak,
                coeff.numerator.bit_length(),
                coeff.denominator.bit_length(),
                kernel.bit_length(),
            )
    return peak


def _timed(unit) -> float:
    start = time.perf_counter()
    unit()
    return time.perf_counter() - start


def host_speed(around, unit, during: bool = True):
    """Run ``around()``; return its result and the factor that converts its
    wall time to the reference host speed.

    Other tenants of a shared host slow everything here by up to 1.7x, for
    seconds to minutes at a time.  They slow a calibration ``unit`` that does
    the same kind of arithmetic by about as much.  So the factor is the
    reference unit time over the mean time of units run around ``around()``
    and, when ``during``, every CALIBRATION_INTERVAL_S while it runs.  Those
    units run in a SIGALRM handler in this thread, between bytecodes of the
    code being timed, and cost under 1% of it.
    """
    samples = [_timed(unit) for _ in range(CALIBRATION_UNITS)]
    previous = signal.signal(signal.SIGALRM, lambda *_: samples.append(_timed(unit)))
    if during:
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_INTERVAL_S, CALIBRATION_INTERVAL_S)
    try:
        result = around()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    samples += [_timed(unit) for _ in range(CALIBRATION_UNITS)]
    return result, CALIBRATION_REFERENCE_S / statistics.fmean(samples)


def run_pass(factory, into: Measured, unit, tracer=None) -> None:
    """Run one pass, measuring the host speed around and during it; each op
    starts from cold caches and is timed to its return or its exception."""
    results, factor = host_speed(lambda: _run_ops(factory(), into, tracer), unit)
    for r in results:
        r.scaled = r.seconds * factor
    into.results += results
    into.passes.append(factory)


def _run_ops(ops, into: Measured, tracer) -> list[OpResult]:
    from workloads import GateFailure

    results = []
    caches = _cache_functions()
    for op in ops:
        for fns in caches.values():
            for fn in fns:
                fn.cache_clear()
        values = ()
        error, wrong = None, False
        start = time.perf_counter()
        try:
            if tracer is None:
                work, values = op.run()
            else:
                work, values = tracer.call(f"op.{op.label}", op.run)
        except GateFailure as exc:
            work, error, wrong = op.work_if_failed, str(exc), True
        except Exception as exc:  # a failed op is counted, and the run goes on
            work, error = op.work_if_failed, f"{type(exc).__name__}: {exc}"[:300]
        seconds = time.perf_counter() - start
        results.append(OpResult(op.label, op.key, seconds, seconds, work, error, wrong))
        into.peak_int_bits = max(into.peak_int_bits, _peak_bits(values))
        for name, fns in caches.items():
            acc = into.caches.setdefault(name, [0, 0, 0])
            infos = [fn.cache_info() for fn in fns]
            acc[0] += sum(i.hits for i in infos)
            acc[1] += sum(i.misses for i in infos)
            acc[2] = max(acc[2], sum(i.currsize for i in infos))
    return results


def measure(workload, seed: int, seconds: float) -> Measured:
    """The workload's ``fixed_passes`` for ``seconds`` when it has them; else
    passes until the next one would end after ``seconds`` of wall time, but
    never fewer than the workload's ``min_passes``."""
    into = Measured()
    if workload.fixed_passes is not None:
        count = workload.fixed_passes(seconds)
        for factory in itertools.islice(workload.passes(seed), count):
            run_pass(factory, into, workload.calibration)
        return into
    start = time.perf_counter()
    for factory in workload.passes(seed):
        elapsed = time.perf_counter() - start
        done = len(into.passes)
        if done >= workload.min_passes and elapsed * (done + 1) / done > seconds:
            break
        run_pass(factory, into, workload.calibration)
    return into


def setup_times(workload: str, seed: int) -> list[tuple[float, float]]:
    """(wall, scaled) seconds from starting a fresh interpreter to its first
    op being ready, once per probe."""
    from workloads import fraction_unit

    command = [sys.executable, __file__, "--setup-probe", "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        seconds, factor = host_speed(lambda: _probe(command), fraction_unit, during=False)
        times.append((seconds, seconds * factor))
    return times


def _probe(command: list[str]) -> float:
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        try:
            child.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            child.kill()
            raise
    if child.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {child.returncode}")
    return elapsed


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _percentiles(values: list[float]) -> tuple[float, float]:
    if len(values) == 1:
        return values[0], values[0]
    cuts = statistics.quantiles(values, n=10, method="inclusive")
    return cuts[4], cuts[8]


def per_op(run: Measured, attr: str = "scaled") -> list[tuple[int, float]]:
    """(work, median time over its repeats) of every distinct operation."""
    repeats: dict[object, list[OpResult]] = {}
    for r in run.results:
        repeats.setdefault((r.label, r.key), []).append(r)
    return [
        (rs[0].work, statistics.median(getattr(r, attr) for r in rs))
        for rs in repeats.values()
    ]


def end_to_end(run: Measured, setups: list[tuple[float, float]]) -> dict[str, float]:
    ops = per_op(run)
    p50, p90 = _percentiles([seconds * 1000 for _, seconds in ops])
    wall = per_op(run, "seconds")
    return {
        "setup_s": statistics.median(scaled for _, scaled in setups),
        "work_per_s": sum(w for w, _ in ops) / sum(t for _, t in ops),
        "op_p50_ms": p50,
        "op_p90_ms": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "fail_frac": run.failed / len(run.results),
        "wall_setup_s": statistics.median(wall_s for wall_s, _ in setups),
        "wall_work_per_s": sum(w for w, _ in wall) / sum(t for _, t in wall),
    }


def per_layer(tracer, traced: Measured, plain: Measured, labels: list[str]) -> dict[str, float]:
    totals = tracer.totals()
    metrics: dict[str, float] = {}
    for label in labels:
        calls, total, own = totals.get(label, (0, 0, 0))
        metrics[f"{label}.calls"] = calls
        metrics[f"{label}.s"] = total / 1e9
        metrics[f"{label}.self_s"] = own / 1e9
    for name, count in tracer.counts.items():
        metrics[name] = count
    for name, (hits, misses, size) in traced.caches.items():
        metrics[f"{name}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        metrics[f"{name}.size"] = size
    for label in labels:
        if label.startswith("verification."):
            check = label.split(".", 1)[1]
            metrics[f"{label}.cases"] = sum(
                r.work for r in traced.results if r.label == f"verify.{check}"
            )
    metrics["numerics.peak_int_bits"] = traced.peak_int_bits
    metrics["trace.overhead_pct"] = 100 * (traced.scaled / plain.scaled - 1)
    return metrics


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------


def git_revision() -> str | None:
    """HEAD's commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "cgexact").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def metadata(workload, seed: int, seconds: int, trace: int) -> dict:
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "params": workload.params(seed),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "load_model": LOAD_MODEL,
    }


def _op_summary(run: Measured) -> dict:
    by_label: dict[str, dict] = {}
    for r in run.results:
        entry = by_label.setdefault(r.label, {"ops": 0, "failed": 0, "work": 0, "seconds": 0.0})
        entry["ops"] += 1
        entry["failed"] += r.error is not None
        entry["work"] += r.work
        entry["seconds"] += r.seconds
    errors: dict[str, int] = {}
    for r in run.results:
        if r.error is not None:
            kind = "wrong output" if r.wrong else r.error.split(":", 1)[0]
            errors[kind] = errors.get(kind, 0) + 1
    first = next((r.error for r in run.results if r.error), None)
    return {"by_label": by_label, "failures_by_kind": errors, "first_failure": first}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _declared(kind: str) -> list[dict]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())[kind]


def _emit(computed: dict[str, float], declared: list[dict]) -> dict:
    missing = [m["name"] for m in declared if m["name"] not in computed]
    if missing:
        raise SystemExit(f"error: metrics not computed: {', '.join(missing)}")
    return {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in declared}


def _run_one(args) -> int:
    from workloads import WORKLOADS, gate_self_check

    workload = WORKLOADS[args.workload]
    meta = metadata(workload, args.seed, args.seconds, args.trace)
    problems = gate_self_check()
    if args.trace:
        import tracing

        plain = measure(workload, args.seed, args.seconds / 2)
        tracer = tracing.Tracer()
        traced = Measured()
        wanted = tracing.targets()
        with tracing.installed(tracer, wanted):
            for factory in plain.passes:
                run_pass(factory, traced, workload.calibration, tracer)
        computed = per_layer(tracer, traced, plain, tracing.labels(wanted))
        declared = _declared("per_layer")
        runs = [plain, traced]
        extra = {"trace": tracer.dump()}
    else:
        setups = setup_times(args.workload, args.seed)
        run = measure(workload, args.seed, args.seconds)
        computed = end_to_end(run, setups)
        declared = _declared("end_to_end")
        runs = [run]
        extra = {"setup_probes_s": setups, "distinct_ops": len(per_op(run))}
    reported = runs[-1]
    correct = not problems and not any(r.wrong for run in runs for r in run.results)
    result = {
        "correct": correct,
        "attempted": len(reported.results),
        "failed": reported.failed,
        "metrics": _emit(computed, declared),
    }
    record = {
        "meta": meta,
        "gate_self_check": problems or "ok",
        "result": result,
        "all_metrics": computed,
        "ops": _op_summary(reported),
        "caches": reported.caches,
        "peak_int_bits": reported.peak_int_bits,
        **extra,
    }
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    _print_summary(record, workload, out)
    print(json.dumps(result))
    return 0


#: per-workload names of the end-to-end metrics, as NOTES.md lists them
_HEADLINES = {
    "table": {"work_per_s": ("table.rows_per_s", "1/s")},
    "verify": {"work_per_s": ("verify.cases_per_s", "1/s")},
    "coeff": {
        "work_per_s": ("coeff.per_s", "1/s"),
        "op_p50_ms": ("coeff.p50_ms", "ms"),
        "op_p90_ms": ("coeff.p90_ms", "ms"),
    },
}
_UNITS = {"setup_s": "s", "work_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
          "peak_rss_mb": "MB", "fail_frac": "ratio", "wall_setup_s": "s", "wall_work_per_s": "1/s"}


def _print_summary(record: dict, workload, out: Path) -> None:
    meta, ops = record["meta"], record["ops"]
    print(f"cgexact benchmark  workload={meta['workload']} seed={meta['seed']} "
          f"seconds={meta['seconds']} trace={meta['trace']}")
    print(f"  load model: {meta['load_model']}")
    print(f"  python {meta['python']}, nproc {meta['nproc']}, git {meta['git_revision']}, "
          f"sources {meta['source_sha256'][:16]}")
    print(f"  inputs: {json.dumps(meta['params'])}")
    print(f"  gate self-check: {record['gate_self_check']}")
    result = record["result"]
    print(f"  ops: {result['attempted']} attempted, {result['failed']} failed "
          f"{json.dumps(ops['failures_by_kind'])}, correct={result['correct']}")
    if ops["first_failure"]:
        print(f"  first failure: {ops['first_failure'][:160]}")
    print(f"  numerics.peak_int_bits {record['peak_int_bits']}, caches {json.dumps(record['caches'])}")
    metrics = record["all_metrics"]
    if meta["trace"]:
        print(f"  tracing overhead: {metrics['trace.overhead_pct']:.1f}% over the same passes untraced")
        for name, entry in result["metrics"].items():
            print(f"  {name:<44} {entry['value']:>14.6g} {entry['unit']}")
    else:
        headlines = _HEADLINES[workload.name]
        for name, value in metrics.items():
            label, unit = headlines.get(name, (name, _UNITS[name]))
            print(f"  {label:<24} {value:>14.6g} {unit}")
        print(f"  (set-up: median of {len(record['setup_probes_s'])} fresh processes; rate and "
              f"percentiles: median repeat of each of {record['distinct_ops']} distinct ops; "
              f"times at the reference host speed, wall_* unscaled)")
    print(f"  record: {out.relative_to(ROOT)}")


def _setup_probe(args) -> int:
    from workloads import WORKLOADS

    next(iter(WORKLOADS[args.workload].passes(args.seed)))()
    print("ready", flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    load_package()
    if args.setup_probe:
        return _setup_probe(args)
    if args.workload == "all":
        command = [sys.executable, __file__, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        codes = [subprocess.run([*command, "--workload", name]).returncode for name in WORKLOAD_NAMES]
        return max(codes)
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
