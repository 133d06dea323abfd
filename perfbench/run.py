#!/usr/bin/env python3
"""plexciton benchmark: four seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload pumped_long --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload
    python3 perfbench/run.py --workload all --repeat 5    # spread against bounds
    python3 perfbench/run.py --selftest                   # tiny sizes, all gates

One workload runs in one process with BLAS/OpenMP pinned to one thread.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
A result file with the run's seeds, sizes, versions and (traced) spans is
written under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

WORKLOADS = ("pumped_long", "short_ensemble", "oracle_sweep", "cli_pipeline")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
# Extra processes that each time one more set-up, half of them before the
# measured passes and half after; setup_s is the median of these and the
# workload process's own set-up.
SETUP_PROBES = 6
PROBE_TIMEOUT = 60
# Host-speed probes this close to a step also count towards its slowdown:
# the host's speed changes over seconds, and a few probes are steadier than
# the two next to a step.
PROBE_WINDOW_S = 1.0
CHILD_TIMEOUT = 175
# Timing metrics with at least this many items also get a p90.
P90_MIN_ITEMS = 100


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_definition() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path} not found")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def import_program():
    """Import the benchmark's workload module and, through it, plexciton."""
    sys.path.insert(0, str(SRC))
    import plexciton
    import workloads

    if Path(plexciton.__file__).resolve().parent != (SRC / "plexciton").resolve():
        fail(f"imported plexciton from {plexciton.__file__}, not from {SRC}")
    return workloads


def timed_setup(workload: str, inputs_dir: str, trace: bool):
    """Import, config parse, params/rates construction and warm-up, timed."""
    start = time.perf_counter()
    wl = import_program()
    setup_tracer = wl.Tracer() if trace else None
    obj = wl.WORKLOADS[workload](inputs_dir, wl.layer_functions(setup_tracer))
    obj.warm_up(wl.layer_functions(None))
    return wl, obj, setup_tracer, time.perf_counter() - start


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return done.stdout.strip() if done.returncode == 0 else "unavailable"


def host_probe_after_setup() -> list[float]:
    """Each kernel's median time over five probes right after a set-up.

    hostspeed is imported only now: it loads numpy, which set-up times.
    """
    import hostspeed

    return hostspeed.probe(repeats=5)


def probe_setup(workload: str, inputs_dir: str) -> tuple[float, list[float]]:
    """One set-up, timed in a fresh process, and the host speed after it."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         inputs_dir, "--workload", workload],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT)
    if done.returncode != 0:
        fail(f"set-up probe failed:\n{done.stderr}")
    sample = json.loads(done.stdout.splitlines()[-1])
    return sample["setup_s"], sample["kernel_s"]


def run_workload(args, definition: dict) -> int:
    from inputs import generate  # standard library only: no numpy yet

    run_dir = RESULTS / f"{args.workload}-{args.seed}-{os.getpid()}"
    inputs_dir = str(run_dir / "inputs")
    try:
        manifest = generate(args.workload, args.seed, args.scale, inputs_dir)
        setups = [probe_setup(args.workload, inputs_dir)
                  for _ in range(SETUP_PROBES // 2)]
        wl, obj, setup_tracer, own_setup = timed_setup(
            args.workload, inputs_dir, bool(args.trace))
        setups.append((own_setup, host_probe_after_setup()))
        obj.reference()
        result = measure(args, wl, obj, setup_tracer)
        setups += [probe_setup(args.workload, inputs_dir)
                   for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    result["setup_samples"] = setups
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "inputs": manifest,
        "python": platform.python_version(), **wl.versions(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "git": git_revision(),
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
    }
    return report(args, definition, meta, result)


def measure(args, wl, obj, setup_tracer) -> dict:
    """Timed passes until ``--seconds`` is used; traced passes alternate."""
    import hostspeed  # only after set-up, which times the import of numpy

    gate = wl.Gate()
    passes = []
    log = obj.steps
    log.probe = hostspeed.probe
    log.between(force=True)  # the kernels' own first-call costs
    started = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        tracer = wl.Tracer() if traced else None
        fns = wl.layer_functions(tracer)
        steps_before, probes_before = len(log.steps), len(log.probes)
        t0 = time.perf_counter()
        log.between(force=True)
        try:
            out = obj.run_pass(fns, tracer)
        except Exception as exc:  # a program failure ends the run, reported
            gate.op(False, f"pass raised {exc!r}")
            out = None
        log.between(force=True)
        seconds = time.perf_counter() - t0
        if not passes:
            # A user's run is one pass: later passes would add only heap
            # growth that depends on how many passes fit in --seconds.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        record = {"traced": traced, "wall_s": seconds,
                  "steps": log.steps[steps_before:],
                  "probes": log.probes[probes_before:]}
        if out is not None:
            record["photons"] = obj.photons(out)
            obj.check(out, gate)
        if tracer is not None:
            record["tracer"] = tracer
        passes.append(record)
        if out is None:
            break
        del out  # the next pass must not run with this one's outputs alive
        elapsed = time.perf_counter() - started
        needed = 2 if args.trace else 1
        # Stop when another pass would more likely end after --seconds.
        if len(passes) >= needed and elapsed + 0.5 * seconds > args.seconds:
            break
    return {"gate": gate, "passes": passes, "obj": obj,
            "setup_tracer": setup_tracer, "peak_rss_mb": peak_rss_mb}


def host_scaled(passes: list[dict], kinds, scaled: bool = True
                ) -> list[tuple[float, dict]]:
    """Each pass's time and its items' times, at the reference host speed.

    A step's seconds are divided by the mean slowdown, against the
    reference host, of the ``kinds`` of host-speed kernels in the probes
    from the last one before it to the first one after it, widened by
    ``PROBE_WINDOW_S`` on both sides, so a step run while other tenants slow
    the host counts as much as one run while they are idle.  An item's time is the sum of its steps'; the pass
    time adds the untimed time between steps, scaled by the pass's median
    slowdown.  With ``scaled`` false, the times as measured.
    """
    from hostspeed import slowdown

    probes = sorted((when, slowdown(kernels, kinds) if scaled else 1.0)
                    for p in passes for when, kernels, _ in p["probes"])
    at = [when for when, _ in probes]
    result = []
    for p in passes:
        items: dict = {}
        for item, start, seconds in p["steps"]:
            first = max(bisect.bisect_left(at, start - PROBE_WINDOW_S) - 1, 0)
            last = bisect.bisect_left(at, start + seconds + PROBE_WINDOW_S)
            around = statistics.mean(s for _, s in probes[first:last + 1])
            items[item] = items.get(item, 0.0) + seconds / around
        between = (p["wall_s"] - sum(t for *_, t in p["steps"])
                   - sum(t for *_, t in p["probes"]))
        own = statistics.median(slowdown(kernels, kinds) if scaled else 1.0
                                for _, kernels, _ in p["probes"])
        result.append((sum(items.values()) + max(between, 0.0) / own, items))
    return result


def host_work(obj) -> tuple[str, ...]:
    """The host-speed kernels a workload's steps are scaled by: all of them
    unless the workload names its own ``HOST_WORK``."""
    from hostspeed import KERNELS

    return getattr(obj, "HOST_WORK", tuple(KERNELS))


def item_medians(scaled: list[tuple[float, dict]]) -> list[float]:
    """Per item, the median over passes of its scaled time."""
    return [statistics.median(items[name] for _, items in scaled if name in items)
            for name in scaled[0][1]]


def end_to_end(workload: str, result: dict) -> tuple[dict, dict]:
    """Gated metrics and the workload-specific named metrics for the report."""
    from hostspeed import slowdown

    kinds = host_work(result["obj"])
    plain = [p for p in result["passes"] if not p["traced"]]
    scaled = host_scaled(plain, kinds)
    wall = statistics.median(total for total, _ in scaled)
    items = item_medians(scaled) or [wall]
    values = {
        "setup_s": statistics.median(raw / slowdown(kernels)
                                     for raw, kernels in result["setup_samples"]),
        "wall_ref_s": wall,
        "item_p50_ref_ms": 1e3 * statistics.median(items),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    # Every timing also as measured (the names without "ref"), unscaled.
    raw = host_scaled(plain, kinds, scaled=False)
    raw_wall = statistics.median(total for total, _ in raw)
    raw_items = item_medians(raw) or [raw_wall]
    named = {"wall_s": (raw_wall, "s", len(plain))}
    photons = [p["photons"] for p in plain if p.get("photons")]
    if photons:
        named["photons_per_s"] = (statistics.median(photons) / raw_wall, "1/s",
                                  len(photons))
        named["photons_per_ref_s"] = (statistics.median(photons) / wall, "1/s",
                                      len(photons))
    named["setup_unscaled_s"] = (
        statistics.median(raw for raw, _ in result["setup_samples"]), "s",
        len(result["setup_samples"]))
    named["host_slowdown"] = (
        statistics.median(slowdown(kernels, kinds)
                          for p in plain for _, kernels, _ in p["probes"]),
        "x", sum(len(p["probes"]) for p in plain))
    item_name = {"short_ensemble": "trajectory", "oracle_sweep": "param_set"}
    prefix = item_name.get(workload)
    for suffix, times in (("ms", raw_items), ("ref_ms", items)):
        if prefix is None:
            break
        named[f"{prefix}_p50_{suffix}"] = (1e3 * statistics.median(times), "ms",
                                           len(times))
        if len(times) >= P90_MIN_ITEMS:
            p90 = statistics.quantiles(times, n=10)[-1]
            named[f"{prefix}_p90_{suffix}"] = (1e3 * p90, "ms", len(times))
    return values, named


def per_layer(result: dict, names: list[str]) -> dict:
    """Median over traced passes of each layer metric (set-up spans added)."""
    traced = [p for p in result["passes"] if p["traced"]]
    plain = [p for p in result["passes"] if not p["traced"]]
    setup = result["setup_tracer"]
    setup_self = setup.self_times() if setup is not None else {}
    samples: dict[str, list[float]] = {name: [] for name in names}
    for p in traced:
        tracer = p["tracer"]
        own = tracer.self_times()
        inclusive = tracer.inclusive_times()
        for name in names:
            base, _, kind = name.rpartition(".")
            if kind == "s":
                value = inclusive.get(base, 0.0) + setup_self.get(base, 0.0)
            elif kind == "self_s":
                value = own.get(base, 0.0)
            elif name == "stochastic.simulate_stream.us_per_photon":
                photons = tracer.counts.get("stochastic.simulate_stream.photons", 0)
                value = (1e6 * inclusive.get("stochastic.simulate_stream", 0.0)
                         / photons if photons else 0.0)
            elif name == "trace.self_coverage_frac":
                probing = sum(seconds for *_, seconds in p["probes"])
                value = sum(own.values()) / (p["wall_s"] - probing)
            elif name == "trace.overhead_frac":
                continue
            else:
                value = tracer.counts.get(name, 0.0)
            samples[name].append(value)
    values = {name: statistics.median(v) if v else 0.0
              for name, v in samples.items()}
    if "trace.overhead_frac" in names and traced:
        kinds = host_work(result["obj"])
        traced_wall = statistics.median(t for t, _ in host_scaled(traced, kinds))
        plain_wall = statistics.median(t for t, _ in host_scaled(plain, kinds))
        values["trace.overhead_frac"] = (traced_wall - plain_wall) / plain_wall
    return values


def report(args, definition: dict, meta: dict, result: dict) -> int:
    gate, obj = result["gate"], result["obj"]
    plain = [p for p in result["passes"] if not p["traced"]]
    units = {m["name"]: m["unit"]
             for m in definition["end_to_end"] + definition["per_layer"]}
    e2e, named = end_to_end(args.workload, result)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"scale {args.scale}")
    print(f"  inputs {json.dumps(meta['inputs']['sizes'])}  "
          f"master_seed {meta['inputs']['master_seed']}")
    print(f"  python {meta['python']}  numpy {meta['numpy']}  nproc "
          f"{meta['nproc']}  git {meta['git']}")
    print(f"  setup_s {e2e['setup_s']:.6g} s at reference host speed (median "
          f"of {len(result['setup_samples'])} set-ups)")
    print(f"  wall_ref_s {e2e['wall_ref_s']:.6g} s at reference host speed "
          f"(median of {len(plain)} passes)")
    for name, (value, unit, count) in named.items():
        print(f"  {name} {value:.6g} {unit} (n={count})")
    print(f"  peak_rss_mb {e2e['peak_rss_mb']:.6g} MB")
    print(f"  failed_frac {gate.failed / max(gate.attempted, 1):.6g} "
          f"({gate.failed} of {gate.attempted} operations)")
    for reason in gate.reasons:
        print(f"  FAILED: {reason}")
    info = {}
    if getattr(obj, "closed_form_gaps", None):
        gaps = obj.closed_form_gaps
        info["regime_warnings"] = obj.regime_warnings
        info["criterion2_gap_median"] = statistics.median(gaps)
        info["criterion2_gap_max"] = max(gaps)
        print(f"  info: {obj.regime_warnings} RegimeWarnings per pass; "
              f"leading-order g2 vs RK4 regression gap (criterion 2, known, "
              f"not gated) median {info['criterion2_gap_median']:.3g}, max "
              f"{info['criterion2_gap_max']:.3g} over {len(gaps)} in-regime "
              f"branch evaluations")

    if args.trace:
        names = [m["name"] for m in definition["per_layer"]]
        metrics = per_layer(result, names)
        for name in names:
            print(f"  {name} {metrics[name]:.6g} {units[name]}")
    else:
        metrics = {m["name"]: e2e[m["name"]] for m in definition["end_to_end"]}

    spans = []
    for index, p in enumerate(result["passes"]):
        if p.get("tracer") is not None:
            spans += [dict(span, pass_index=index) for span in p["tracer"].spans]
    if result["setup_tracer"] is not None:
        spans += [dict(span, pass_index="setup")
                  for span in result["setup_tracer"].spans]
    RESULTS.mkdir(parents=True, exist_ok=True)
    record = {
        "meta": meta, "metrics": metrics, "named": named, "info": info,
        "attempted": gate.attempted, "failed": gate.failed,
        "failures": gate.reasons,
        "passes": [{"traced": p["traced"], "wall_s": p["wall_s"],
                    "photons": p.get("photons"),
                    "steps": [[start, t] for _, start, t in p["steps"]],
                    "probes": p["probes"]}
                   for p in result["passes"]],
        "setup_samples": result["setup_samples"], "spans": spans,
    }
    out_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, default=str)

    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def run_child(workload: str, seed: int, seconds: int, trace: int,
              scale: str = "full") -> tuple[int, str, dict | None]:
    """One workload in its own process; returns (exit code, stdout, result)."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
         "--scale", scale],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    result = None
    lines = done.stdout.strip().splitlines()
    if done.returncode == 0 and lines:
        result = json.loads(lines[-1])
    else:
        sys.stderr.write(done.stderr)
    return done.returncode, done.stdout, result


def run_all(args) -> int:
    """Every workload, one process each; one combined JSON line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        code, stdout, result = run_child(workload, args.seed, args.seconds,
                                         args.trace, args.scale)
        sys.stdout.write("\n".join(stdout.strip().splitlines()[:-1]) + "\n")
        if result is None:
            fail(f"{workload} exited with code {code}")
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def run_repeat(args, definition: dict) -> int:
    """``--repeat`` runs per workload on consecutive seeds; spread vs bound.

    Spread is the distance between the first and third quartile of the runs'
    values, as a share of their median.  A metric is steady when the spread
    is under a third of its bound.
    """
    bounds = {m["name"]: m.get("bound") for m in definition["end_to_end"]}
    selected = WORKLOADS if args.workload == "all" else (args.workload,)
    steady = True
    for workload in selected:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for index in range(args.repeat):
            code, _, result = run_child(workload, args.seed + index,
                                        args.seconds, 0, args.scale)
            if result is None or not result["correct"]:
                fail(f"{workload} seed {args.seed + index} failed (code {code})")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        for name, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            ok = spread < bounds[name] / 3.0
            steady = steady and (ok or name == "setup_s")
            print(f"{workload:15s} {name:12s} median {median:10.5g}  spread "
                  f"{spread:6.3f}  bound {bounds[name]:.2f}  "
                  f"{'steady' if ok else 'NOT steady'}  "
                  f"values {' '.join(f'{v:.4g}' for v in series)}")
    print(json.dumps({"steady": steady}))
    return 0


def run_selftest(definition: dict) -> int:
    """Every workload at tiny size, both trace modes: outputs match the spec."""
    wanted = {0: {m["name"]: m["unit"] for m in definition["end_to_end"]},
              1: {m["name"]: m["unit"] for m in definition["per_layer"]}}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, _, result = run_child(workload, 1, 0, trace, "tiny")
            label = f"{workload} trace {trace}"
            if result is None:
                problems.append(f"{label}: exit code {code}, no result")
                continue
            metrics = result["metrics"]
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: gate {result['failed']} of "
                                f"{result['attempted']} failed")
            if set(metrics) != set(wanted[trace]):
                problems.append(f"{label}: metrics differ from BENCHMARK.json")
            for name, metric in metrics.items():
                value = metric["value"]
                if metric["unit"] != wanted[trace].get(name):
                    problems.append(f"{label}: {name} unit {metric['unit']}")
                if not math.isfinite(value) or (trace == 0 and value <= 0.0):
                    problems.append(f"{label}: {name} = {value}")
            print(f"selftest {label}: {'ok' if not problems else 'checked'}")
    for problem in problems:
        print(f"selftest FAILED {problem}")
    print(json.dumps({"selftest": "pass" if not problems else "fail"}))
    return 0 if not problems else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measure for this long, at least one pass "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run this many seeds per workload; print spreads")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", metavar="INPUTS_DIR",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (SRC / "plexciton" / "__init__.py").is_file():
        fail(f"no plexciton sources under {SRC}")
    definition = load_definition()
    if args.seconds is None:
        args.seconds = definition["run_seconds"]
    for name in THREAD_VARS:
        # Before numpy is imported; child processes inherit the pins.
        os.environ[name] = "1"

    if args.setup_probe:
        *_, seconds = timed_setup(args.workload, args.setup_probe, False)
        print(json.dumps({"setup_s": seconds,
                          "kernel_s": host_probe_after_setup()}))
        return 0
    if args.selftest:
        return run_selftest(definition)
    if args.repeat:
        return run_repeat(args, definition)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, definition)


if __name__ == "__main__":
    sys.exit(main())
