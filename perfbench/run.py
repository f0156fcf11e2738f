"""Benchmark of the blackbox_lds package: three workloads, end-to-end metrics,
and a traced run that breaks the time down by module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is pipeline-scalar, recover-mimo, lowerbound-attack, or all (each
workload in its own process, one after the other). The package is imported
from src/ next to this directory. The run repeats passes of the workload's
operations for S seconds and prints a report; its last line is one JSON
object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 passes alternate between
untraced and traced, and the metrics are the per-layer ones plus the tracing
overhead. Results, and the spans of a traced run, are written under
.perfbench/results/. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("pipeline-scalar", "recover-mimo", "lowerbound-attack")
# One BLAS thread: the workloads are small-matrix loops, and one thread keeps
# timings from depending on what else runs on the machine.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 7
MIN_PASSES = 3

clock = time.perf_counter

END_TO_END = {  # name: unit
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
    "round_us_p50": "us",
    "round_us_p99": "us",
    "offline_s": "s",
}

PER_LAYER = {  # name: unit
    "plant.apply_calls": "count",
    "plant.apply_s": "s",
    "plant.apply_us_p50": "us",
    "sysid.adv_sys_id_s": "s",
    "sysid.rounds": "count",
    "stabilize.controller_recovery_s": "s",
    "stabilize.sdp_feasibility_s": "s",
    "stabilize.psd_projections": "count",
    "stabilize.us_per_iter": "us",
    "stabilize.decay_s": "s",
    "stabilize.decay_rounds": "count",
    "nsc.gpc_run_s": "s",
    "nsc.gpc_rounds": "count",
    "nsc.gpc_self_s": "s",
    "nsc.gpc_round_self_us": "us",
    "nsc.gpc_loop_self_s": "s",
    "nsc.surrogate_gradient_s": "s",
    "nsc.surrogate_gradient_calls": "count",
    "nsc.project_M_s": "s",
    "nsc.project_M_calls": "count",
    "nsc.dac_control_s": "s",
    "nsc.dac_control_calls": "count",
    "nsc.estimate_disturbance_s": "s",
    "nsc.estimate_disturbance_calls": "count",
    "nsc.comparator_s": "s",
    "nsc.comparator_iters": "count",
    "nsc.comparator_evals": "count",
    "nsc.comparator_accept_ratio": "ratio",
    "pipeline.run_pipeline_s": "s",
    "pipeline.self_s": "s",
    "pipeline.derive_constants_s": "s",
    "lowerbound.randomized_trial_s": "s",
    "lowerbound.deterministic_s": "s",
    "lowerbound.controller_s": "s",
    "lowerbound.controller_calls": "count",
    "lowerbound.harness_self_s": "s",
    "lowerbound.tracker_extend_calls": "count",
    "lowerbound.doubled_ratio": "ratio",
    "cli.dispatch_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "B",
    "trace.spans": "count",
    "trace.pipeline_cover": "ratio",
    "trace.sdp_wall_cover": "ratio",
    "trace.nsc_stabilize_spans": "count",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}


def import_package():
    """Import blackbox_lds from this checkout's src/, and nothing else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import blackbox_lds
    if not Path(blackbox_lds.__file__).resolve().is_relative_to(src):
        raise ImportError(f"blackbox_lds resolved outside {src}: "
                          f"{blackbox_lds.__file__}")


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
    }


# -- measurement --------------------------------------------------------------

def setup_probe(name: str, seed: int) -> float:
    """Seconds to import the package and build the workload's inputs in this
    (fresh) interpreter."""
    start = clock()
    import_package()
    import workloads
    workloads.WORKLOADS[name](seed, WORK_DIR / f"out-{os.getpid()}")
    return clock() - start


def measure_setup(name: str, seed: int) -> list:
    """Set up SETUP_REPEATS times, each in a fresh interpreter."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def run_passes(workload, seconds: float, trace: bool) -> list:
    """Repeat passes until `seconds` have elapsed and at least MIN_PASSES
    have run (two of each kind when tracing). With trace, every second pass
    is traced."""
    from spans import Tracer
    from workloads import TRACE_TARGETS
    passes = []
    deadline = clock() + seconds
    need = MIN_PASSES + 1 if trace else MIN_PASSES
    last = 0.0  # duration of the previous pass: start none that would mostly overrun
    while len(passes) < need or clock() + 0.5 * last < deadline:
        started = clock()
        traced = trace and len(passes) % 2 == 1
        if traced:
            tracer = Tracer()
            with tracer.installed(TRACE_TARGETS, "blackbox_lds") as absent:
                ops = workload.run_pass(tracer)
            passes.append({"traced": True, "ops": ops, "tracer": tracer,
                           "absent": absent})
        else:
            passes.append({"traced": False, "ops": workload.run_pass(None)})
        last = clock() - started
    return passes


def wall(ops) -> float:
    return sum(op.duration for op in ops)


def position_medians(passes, values) -> list:
    """For each position (operation, index in values(op)), the median of its
    value over the passes."""
    slots = {}
    for p in passes:
        for i, op in enumerate(p["ops"]):
            for j, value in enumerate(values(op)):
                slots.setdefault((i, j), []).append(value)
    return [statistics.median(v) for v in slots.values()]


def end_to_end(passes, setup_times) -> tuple:
    import numpy as np
    ops = [op for p in passes for op in p["ops"]]
    rounds = position_medians(passes, lambda op: op.round_gaps)
    p50, p99 = np.percentile(rounds, [50, 99]) * 1e6 if rounds else (0.0, 0.0)
    segments = position_medians(passes, lambda op: op.segments)
    offline = position_medians(passes, lambda op: [op.offline])
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": sum(segments),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_ratio": sum(not op.failed for op in ops) / len(ops),
        "round_us_p50": float(p50),
        "round_us_p99": float(p99),
        "offline_s": sum(offline),
    }
    samples = {"setup_s": f"median of {len(setup_times)} set-ups",
               "wall_s": f"sum of {len(segments)} segments, each a median over "
                         f"{len(passes)} passes",
               "offline_s": f"sum over {len(offline)} operations, each a median "
                            f"over {len(passes)} passes",
               "round_us_p50": f"{len(rounds)} rounds, each a median over passes",
               "round_us_p99": f"{len(rounds)} rounds, each a median over passes",
               "pass_ratio": f"{len(ops)} operations"}
    return metrics, samples


def layer_metrics(tracer, ops) -> dict:
    """Per-layer metrics of one traced pass."""
    from spans import children, summarize
    spans, counts = tracer.spans, tracer.counts
    s = summarize(spans)

    def total(name):
        return s[name]["total"] if name in s else 0.0

    def self_time(name):
        return s[name]["self"] if name in s else 0.0

    def calls(name):
        return s[name]["calls"] if name in s else 0

    m = {}
    apply = s["plant.apply"]["durations"] if "plant.apply" in s else []
    m["plant.apply_calls"] = len(apply)
    m["plant.apply_s"] = sum(apply)
    m["plant.apply_us_p50"] = statistics.median(apply) * 1e6 if apply else 0.0
    m["sysid.adv_sys_id_s"] = total("sysid.adv_sys_id")
    m["sysid.rounds"] = children(spans, "sysid.adv_sys_id", "plant.apply")[1]
    m["stabilize.controller_recovery_s"] = total("stabilize.controller_recovery")
    sdp = total("stabilize.sdp_feasibility")
    projections = counts.get("stabilize.project_psd_trace", 0)
    m["stabilize.sdp_feasibility_s"] = sdp
    m["stabilize.psd_projections"] = projections
    m["stabilize.us_per_iter"] = sdp / projections * 1e6 if projections else 0.0
    m["stabilize.decay_s"] = total("stabilize.decay")
    m["stabilize.decay_rounds"] = children(spans, "stabilize.decay", "plant.apply")[1]
    gpc = total("nsc.gpc_run")
    plant_time, rounds = children(spans, "nsc.gpc_run", "plant.apply")
    learner = gpc - plant_time
    m["nsc.gpc_run_s"] = gpc
    m["nsc.gpc_rounds"] = rounds
    m["nsc.gpc_self_s"] = learner
    m["nsc.gpc_round_self_us"] = learner / rounds * 1e6 if rounds else 0.0
    m["nsc.gpc_loop_self_s"] = self_time("nsc.gpc_run")
    for fn in ("surrogate_gradient", "project_M", "dac_control",
               "estimate_disturbance"):
        m[f"nsc.{fn}_s"], m[f"nsc.{fn}_calls"] = children(spans, "nsc.gpc_run",
                                                          f"nsc.{fn}")
    comparator = total("nsc.best_dac_in_hindsight")
    evals = children(spans, "nsc.best_dac_in_hindsight", "nsc.dac_total_cost")[1]
    iters = sum(op.extras.get("comparator_iters", 0) for op in ops)
    m["nsc.comparator_s"] = comparator
    m["nsc.comparator_iters"] = iters
    m["nsc.comparator_evals"] = evals
    m["nsc.comparator_accept_ratio"] = iters / evals if evals else 0.0
    run_pipeline = total("pipeline.run_pipeline")
    m["pipeline.run_pipeline_s"] = run_pipeline
    m["pipeline.self_s"] = self_time("pipeline.run_pipeline")
    m["pipeline.derive_constants_s"] = total("pipeline.derive_constants")
    m["lowerbound.randomized_trial_s"] = total("lowerbound.randomized_lb_trial")
    m["lowerbound.deterministic_s"] = total("lowerbound.deterministic_adversary")
    m["lowerbound.controller_s"] = total("lowerbound.controller")
    m["lowerbound.controller_calls"] = calls("lowerbound.controller")
    m["lowerbound.harness_self_s"] = (self_time("lowerbound.randomized_lb_trial")
                                      + self_time("lowerbound.deterministic_adversary"))
    m["lowerbound.tracker_extend_calls"] = counts.get("lowerbound.tracker_extend", 0)
    judged = sum(op.extras.get("judged", 0) for op in ops)
    doubled = sum(op.extras.get("doubled", 0) for op in ops)
    m["lowerbound.doubled_ratio"] = doubled / judged if judged else 0.0
    m["cli.dispatch_s"] = total("cli.dispatch")
    m["cli.self_s"] = self_time("cli.dispatch")
    m["cli.bytes_written"] = sum(op.bytes_written for op in ops)
    m["trace.spans"] = len(spans)
    m["trace.pipeline_cover"] = ((gpc + comparator) / run_pipeline
                                 if run_pipeline else 0.0)
    m["trace.sdp_wall_cover"] = sdp / wall(ops)
    m["trace.nsc_stabilize_spans"] = (
        sum(v["calls"] for k, v in s.items() if k.startswith(("nsc.", "stabilize.")))
        + sum(v for k, v in counts.items() if k.startswith(("nsc.", "stabilize."))))
    return m


def per_layer(passes) -> tuple:
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    per_pass = [layer_metrics(p["tracer"], p["ops"]) for p in traced]
    metrics = {name: statistics.median(m[name] for m in per_pass)
               for name in per_pass[0]}
    plain = statistics.median(wall(p["ops"]) for p in untraced)
    metrics["trace.overhead_s"] = (statistics.median(wall(p["ops"]) for p in traced)
                                   - plain)
    metrics["trace.overhead_ratio"] = metrics["trace.overhead_s"] / plain
    absent = sorted({name for p in traced for name in p["absent"]})
    samples = {name: f"median of {len(traced)} traced passes" for name in metrics}
    samples["trace.overhead_s"] = samples["trace.overhead_ratio"] = (
        f"{len(traced)} traced vs {len(untraced)} untraced passes")
    return metrics, samples, absent


# -- reporting ----------------------------------------------------------------

def check_table(passes) -> tuple:
    """Aggregate output checks and failures over every operation."""
    checks = {}
    failures = {}
    digests = {}
    for p in passes:
        for op in p["ops"]:
            if op.error is not None:
                failures.setdefault((op.label, op.error), 0)
                failures[(op.label, op.error)] += 1
            for name, ok, detail in op.checks:
                entry = checks.setdefault((op.label, name), [0, 0, detail])
                entry[0] += ok
                entry[1] += 1
                if not ok:
                    entry[2] = detail
            if op.digest:
                digests.setdefault(op.label, set()).add(op.digest)
    return checks, failures, digests


def report(name, args, env, params, passes, metrics, units, samples, absent):
    ops = [op for p in passes for op in p["ops"]]
    attempted = len(ops)
    failed = sum(op.failed for op in ops)
    checks, failures, digests = check_table(passes)
    correct = all(passed == total for passed, total, _ in checks.values())
    print(f"perfbench {name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    print("parameters " + json.dumps(params, sort_keys=True))
    print(f"operations attempted={attempted} failed={failed} "
          f"fail_ratio={failed / attempted:.6g} passes={len(passes)}")
    for (label, check), (passed, total, detail) in checks.items():
        verdict = "PASS" if passed == total else "FAIL"
        print(f"check {verdict} [{label}] {check}: {detail} ({passed}/{total})")
    for (label, error), count in failures.items():
        print(f"failure [{label}] {error} (x{count})")
    for label, values in digests.items():
        stable = "stable" if len(values) == 1 else "VARIES across passes"
        print(f"digest [{label}] {','.join(sorted(values))} ({stable})")
    extras = [op.extras for op in ops if "total_cost" in op.extras]
    if extras:
        print("numbers total_cost={total_cost!r} regret={regret!r} K={K!r}"
              .format(**extras[-1]))
    for metric, value in metrics.items():
        note = f"  ({samples[metric]})" if metric in samples else ""
        print(f"metric {metric} = {value:.6g} {units[metric]}{note}")
    if absent:
        print("absent (reported as zero): " + ", ".join(absent))
    if args.trace:
        label, ok = trace_accounting(name, metrics)
        print(f"trace {'PASS' if ok else 'FAIL'} {label}")
    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    WORK_DIR.joinpath("results").mkdir(parents=True, exist_ok=True)
    stem = WORK_DIR / "results" / f"{name}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps({
        **result, "workload": name, "seed": args.seed, "seconds": args.seconds,
        "environment": env, "parameters": params, "samples": samples,
        "absent": absent,
        "checks": [{"op": label, "check": check, "passed": passed, "total": total,
                    "detail": detail}
                   for (label, check), (passed, total, detail) in checks.items()],
        "failures": [{"op": label, "error": error, "count": count}
                     for (label, error), count in failures.items()],
        "digests": {label: sorted(v) for label, v in digests.items()},
        "pass_walls": [{"traced": p["traced"], "wall_s": wall(p["ops"])}
                       for p in passes],
    }, indent=1, default=str) + "\n")
    if args.trace:
        stem.with_name(stem.name + "-spans.json").write_text(json.dumps([
            {"spans": p["tracer"].spans, "counts": dict(p["tracer"].counts)}
            for p in passes if p["traced"]]))
    print(json.dumps(result))


def trace_accounting(name, m) -> tuple:
    """Does the trace account for the end-to-end time of this workload?"""
    if name == "pipeline-scalar":
        cover = m["trace.pipeline_cover"]
        return (f"nsc.gpc_run_s + nsc.comparator_s >= 90% of "
                f"pipeline.run_pipeline_s ({cover:.4f})", cover >= 0.9)
    if name == "recover-mimo":
        cover = m["trace.sdp_wall_cover"]
        return (f"stabilize.sdp_feasibility_s >= 90% of wall_s ({cover:.4f})",
                cover >= 0.9)
    seen = m["trace.nsc_stabilize_spans"]
    return f"no nsc or stabilize span ({seen} seen)", seen == 0


def run_one(args) -> int:
    started = clock()
    try:
        import_package()
    except ImportError as exc:
        print(f"perfbench: cannot import blackbox_lds from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    import_s = clock() - started
    import workloads
    out_root = WORK_DIR / f"out-{os.getpid()}"
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, out_root)
        setup_times = measure_setup(args.workload, args.seed)
        workload.warmup()
        passes = run_passes(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
    env = environment()
    env["first_import_s"] = import_s
    if args.trace:
        metrics, samples, absent = per_layer(passes)
        units = PER_LAYER
    else:
        metrics, samples = end_to_end(passes, setup_times)
        absent = []
        units = END_TO_END
    report(args.workload, args, env, workload.params(), passes, metrics, units,
           samples, absent)
    return 0


def run_all(args) -> int:
    """Run every workload in its own process; print their reports and one
    combined result line with metrics named <workload>.<metric>."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"perfbench: {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.environ.update(BLAS_ENV)  # before numpy is imported, here and in children
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_probe(args.workload, args.seed)}))
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
