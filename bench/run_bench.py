"""Benchmark for lgsim: one command, three workloads, checked results.

Usage, from the root of a source checkout:

    python3 bench/run_bench.py --workload {sweep-grid,point-checks,cli} \
        --seed N --seconds S --trace {0,1}

Every workload is a closed loop with one client and no think time: the next
operation starts when the previous one has returned.  ``sweep-grid`` and
``point-checks`` run in fresh worker interpreters started one after another
(``bench/worker.py``), ``cli`` runs ``python -m lgsim`` subprocesses one at
a time.  The run is split over several processes because separate
interpreters differ by about a tenth in speed; pooling their samples keeps
one run's figures steady.  BLAS and OpenMP threads are pinned to 1, and the
run and all its children to one CPU.  Round and set-up times are scaled by
a reference loop timed alongside them (``bench/pace.py``), which cancels
most of the host's speed drift.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a traced run (see ``bench/README.md``).  The line before it is a JSON record
of the run's environment and conditions.  Without an ``src/lgsim`` package
in the working directory the command exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sweep-grid", "point-checks", "cli")
WORKERS = {"sweep-grid": 5, "point-checks": 6}
# Ops in one round of a workload's fixed mix (cli: see round_time).
ROUND_OPS = {"sweep-grid": 1, "point-checks": 10}
# Set-up spawns at the start of a run, and between workers or rotations.
SETUP_PROBES = 3
SETUP_BETWEEN = 2
IMPORTTIME_RUNS = 3
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
# Worst case for one worker or CLI call, well past any sane run.
CHILD_TIMEOUT_S = 150.0


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_PINS)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH", "")) if p
    )
    return env


# --------------------------------------------------------------------------
# statistics


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default) of ``values``."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least 10 of ``n`` samples beyond it.

    Capped at 99 and floored at 50; below 20 samples the floor holds even
    though fewer than 10 samples lie beyond it (the record says so).
    """
    return max(50, min(99, math.floor(100.0 * (1.0 - 10.0 / max(n, 1)))))


def latency_summary(latencies: list[float]) -> dict:
    q = tail_percentile(len(latencies))
    tail = percentile(latencies, q)
    return {
        "p50_s": statistics.median(latencies),
        "tail_s": tail,
        "tail_percentile": q,
        "samples": len(latencies),
        "beyond_tail": sum(1 for x in latencies if x > tail),
    }


# --------------------------------------------------------------------------
# processes


def spawn_worker(spec: dict, root: Path, env: dict) -> tuple[float, dict | None]:
    """Start a worker, return (seconds until ``import lgsim`` returned, result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), json.dumps(spec)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker failed (exit {proc.returncode}): {err.strip()[-2000:]}")
    if spec.get("mode") == "probe":
        return ready, None
    return ready, json.loads(out.strip().splitlines()[-1])


def measure_setup(root: Path, env: dict, count: int, samples: list) -> None:
    """Append ``count`` pairs (spawn-to-``import lgsim`` seconds, reference
    seconds) to ``samples``.

    The reference is the mean of the reference loop's times just before and
    just after the spawn.  Runs call this at their start and again between
    workers or rotations, so the samples cover the whole run.
    """
    import pace

    before = pace.reference_s()
    for _ in range(count):
        probe = spawn_worker({"mode": "probe"}, root, env)[0]
        after = pace.reference_s()
        samples.append((probe, (before + after) / 2.0))
        before = after


def import_times(root: Path, env: dict) -> tuple[float, float]:
    """Median cumulative import time (ms) of numpy and lgsim, from -X importtime."""
    numpy_ms, lgsim_ms = [], []
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import lgsim"],
            cwd=root, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S, check=True,
        )
        found = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in ("numpy", "lgsim"):
                found[parts[2].strip()] = int(parts[1]) / 1000.0
        numpy_ms.append(found.get("numpy", 0.0))
        lgsim_ms.append(found["lgsim"])
    return statistics.median(numpy_ms), statistics.median(lgsim_ms)


def run_cli_once(args: list[str], root: Path, env: dict, scratch: Path,
                 spans: Path | None) -> tuple[float, int, int, str]:
    """Run one CLI invocation; return (seconds, exit code, peak RSS kB, stderr)."""
    if spans is None:
        cmd = [sys.executable, "-m", "lgsim", *args]
    else:
        cmd = [sys.executable, str(HERE / "cli_traced.py"), str(spans), *args]
    with open(scratch / "stderr.txt", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        message = err.read().decode("utf-8", "replace")
    return elapsed, proc.returncode, usage.ru_maxrss, message


# --------------------------------------------------------------------------
# workloads


def run_workers(workload: str, seed: int, seconds: float, trace: bool,
                root: Path, env: dict, setup: list) -> dict:
    n = WORKERS[workload]
    results = []
    for index in range(n):
        if index:
            measure_setup(root, env, SETUP_BETWEEN, setup)
        spec = {"workload": workload, "seed": seed, "index": index,
                "seconds": seconds / n, "trace": trace}
        results.append(spawn_worker(spec, root, env)[1])
    src = str((root / "src").resolve())
    for r in results:
        if not str(Path(r["lgsim_file"]).resolve()).startswith(src):
            raise BenchError(f"worker imported lgsim from {r['lgsim_file']}, not {src}")
    size = ROUND_OPS[workload]
    out = {
        "latencies": [x for r in results for x in r["latencies"]],
        "refs": [x for r in results for x in r["refs"]],
        "rounds": [sum(r["latencies"][i:i + size]) for r in results
                   for i in range(0, len(r["latencies"]) - size + 1, size)],
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "failed_by_kind": {},
        "examples": [e for r in results for e in r["examples"]][:5],
        "rss_kb": max(r["rss_kb"] for r in results),
    }
    if "omega_defect" in results[0]:
        out["omega_defect"] = results[0]["omega_defect"]
    for r in results:
        for kind, count in r["failed_by_kind"].items():
            out["failed_by_kind"][kind] = out["failed_by_kind"].get(kind, 0) + count
    if trace:
        import tracing

        out["totals"] = tracing.merge_totals(r["totals"] for r in results)
        out["traced_ops"] = sum(r["traced_ops"] for r in results)
        out["untraced_s"] = sum(r["untraced_s"] for r in results)
        out["traced_s"] = sum(r["traced_s"] for r in results)
    return out


def run_cli(seed: int, seconds: float, trace: bool, root: Path, env: dict,
            scratch: Path, setup: list) -> dict:
    import pace
    import workloads

    variants = workloads.cli_variants(seed)
    digests: dict[tuple[str, int], str] = {}
    out = {"latencies": [], "attempted": 0, "failed": 0, "failed_by_kind": {},
           "examples": [], "rss_kb": 0, "classes": {"sweep": [], "check": []},
           "by_slot": {slot: [] for slot in workloads.CLI_ROTATION}}
    pacer = pace.Pacer()

    def invoke(key, spans=None):
        inv = variants[key]
        target = scratch / f"{inv['slot']}-{key[1]}.{inv['ext']}"
        if target.exists():
            target.unlink()
        elapsed, code, rss, message = run_cli_once(
            [*inv["args"], "--output", str(target)], root, env, scratch, spans)
        if code != 0:
            problem = f"exit code {code}: {message.strip()[-300:]}"
        else:
            data = target.read_bytes()
            problem = workloads.check_cli(inv, data)
            first = digests.setdefault(key, workloads.digest(data))
            if problem is None and first != workloads.digest(data):
                problem = "output bytes differ from an identical earlier invocation"
        out["attempted"] += 1
        out["rss_kb"] = max(out["rss_kb"], rss)
        if problem is not None:
            out["failed"] += 1
            slot = inv["slot"]
            out["failed_by_kind"][slot] = out["failed_by_kind"].get(slot, 0) + 1
            if len(out["examples"]) < 5:
                out["examples"].append(f"{slot}: {problem}")
        return elapsed

    budget = seconds / (2.0 if trace else 1.0)
    done = []
    spent = 0.0
    rotation = 0
    # Whole rotations only, so the command mix stays fixed; another one
    # starts while at least half of it is expected to fit in the budget.
    while spent + (spent / max(rotation, 1)) / 2.0 < budget:
        for slot in workloads.CLI_ROTATION:
            key = (slot, rotation % workloads.CLI_VARIANTS)
            elapsed = invoke(key)
            pacer.after(elapsed)
            spent += elapsed
            done.append(key)
            out["latencies"].append(elapsed)
            out["by_slot"][slot].append(elapsed)
            cls = "sweep" if slot in workloads.CLI_SWEEP_SLOTS else "check"
            out["classes"][cls].append(elapsed)
        rotation += 1
        measure_setup(root, env, SETUP_BETWEEN, setup)
    out["refs"] = pacer.samples

    if trace:
        import tracing

        parts = []
        traced_s = 0.0
        for i, key in enumerate(done):
            spans = scratch / f"spans-{i}.json"
            traced_s += invoke(key, spans)
            if spans.exists():  # absent only when the invocation crashed
                parts.append(json.loads(spans.read_text(encoding="utf-8")))
        out["totals"] = tracing.merge_totals(parts)
        out["traced_ops"] = len(done)
        out["untraced_s"] = spent
        out["traced_s"] = traced_s
    return out


# --------------------------------------------------------------------------
# report


def environment(root: Path, seed: int, workload: str, seconds: float, trace: bool,
                cpus: list[int]) -> dict:
    import numpy

    src = root / "src" / "lgsim"
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=30,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(cpus),
        "pinned_cpu": cpus[-1],
        "git_commit": commit,
        "src_sha256": h.hexdigest(),
        "thread_pins": dict(THREAD_PINS),
        "workers": WORKERS.get(workload, 0),
        "setup_probes": [SETUP_PROBES, SETUP_BETWEEN],
    }


def round_time(workload: str, res: dict) -> float:
    """Mean seconds for one round of the workload's fixed mix.

    A round is one op on ``sweep-grid`` and one block of ten ops on
    ``point-checks``, so every kind of op counts as often as the mix holds
    it.  A ``cli`` run holds only three or four rotations, so there it is
    the sum, over the commands of one rotation, of each command's mean.
    """
    if workload == "cli":
        return sum(statistics.mean(v) for v in res["by_slot"].values())
    return statistics.mean(res["rounds"])


def scaled_setup(samples: list) -> float:
    """Median set-up time, each spawn scaled by the reference around it."""
    import pace

    return statistics.median(probe / ref * pace.NOMINAL_MS / 1e3 for probe, ref in samples)


def end_to_end(workload: str, res: dict, setup: list) -> tuple[dict, dict]:
    """(BENCHMARK.json metrics, workload-named metrics) for an untraced run."""
    import pace

    lat = latency_summary(res["latencies"])
    ok = res["attempted"] - res["failed"]
    busy = sum(res["latencies"])
    round_s = round_time(workload, res)
    ref_s = statistics.mean(res["refs"])
    metrics = {
        "setup_s": (scaled_setup(setup), "s"),
        "peak_rss_mb": (res["rss_kb"] / 1024.0, "MB"),
        "round_norm_ms": (round_s / ref_s * pace.NOMINAL_MS, "ms"),
    }
    named = {
        "setup_raw_s": (statistics.median(probe for probe, _ in setup), "s"),
        "round_mean_ms": (round_s * 1e3, "ms"),
        "reference_mean_ms": (ref_s * 1e3, "ms"),
        "setup_s": metrics["setup_s"],
        "peak_rss_mb": metrics["peak_rss_mb"],
        "failed_frac": (res["failed"] / res["attempted"], "frac"),
    }
    if workload == "sweep-grid":
        import workloads

        named["sweep_p50_ms"] = (lat["p50_s"] * 1e3, "ms")
        named["sweep_tail_ms"] = (lat["tail_s"] * 1e3, "ms")
        named["points_per_s"] = (ok * workloads.SWEEP_STEPS / busy, "1/s")
    elif workload == "point-checks":
        named["check_p50_us"] = (lat["p50_s"] * 1e6, "us")
        named["check_tail_us"] = (lat["tail_s"] * 1e6, "us")
        named["checks_per_s"] = (ok / busy, "1/s")
    else:
        classes = {cls: latency_summary(res["classes"][cls]) for cls in ("sweep", "check")}
        for cls, summary in classes.items():
            named[f"cli_{cls}_p50_s"] = (summary["p50_s"], "s")
            named[f"cli_{cls}_tail_s"] = (summary["tail_s"], "s")
        return metrics, {"latency": lat, "named": named, "cli_classes": classes}
    return metrics, {"latency": lat, "named": named}


def per_layer(res: dict, root: Path, env: dict) -> tuple[dict, dict]:
    import tracing

    metrics = tracing.layer_metrics(res["totals"], res["traced_ops"])
    numpy_ms, lgsim_ms = import_times(root, env)
    metrics["import.numpy_ms"] = (numpy_ms, "ms")
    metrics["import.lgsim_ms"] = (lgsim_ms, "ms")
    overhead = res["traced_s"] / res["untraced_s"] - 1.0
    metrics["trace.overhead_frac"] = (overhead, "frac")
    return metrics, {
        "traced_ops": res["traced_ops"],
        "untraced_s": res["untraced_s"],
        "traced_s": res["traced_s"],
        "overhead_frac": overhead,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = Path.cwd()
    if not (root / "src" / "lgsim" / "__init__.py").is_file():
        print("run_bench: no src/lgsim package in the working directory; "
              "run from the root of an lgsim checkout", file=sys.stderr)
        return 2
    cpus = sorted(os.sched_getaffinity(0))
    # One CPU for this process and every child, so the reference loop
    # (pace.py) runs where the same host load hits as the work it scales.
    os.sched_setaffinity(0, {cpus[-1]})
    os.environ.update(THREAD_PINS)  # before numpy is imported below
    sys.path.insert(0, str(HERE))
    env = child_env(root)
    trace = bool(args.trace)

    scratch = Path(tempfile.mkdtemp(prefix=".bench-tmp-", dir=root))
    try:
        spawn_worker({"mode": "probe"}, root, env)  # warms the bytecode cache
        setup = []
        measure_setup(root, env, SETUP_PROBES, setup)
        if args.workload == "cli":
            res = run_cli(args.seed, args.seconds, trace, root, env, scratch, setup)
        else:
            res = run_workers(args.workload, args.seed, args.seconds, trace, root, env,
                              setup)
        if trace:
            metrics, detail = per_layer(res, root, env)
        else:
            metrics, detail = end_to_end(args.workload, res, setup)
    except BenchError as exc:
        print(f"run_bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    record = environment(root, args.seed, args.workload, args.seconds, trace, cpus)
    record.update(
        setup_samples_s=setup,
        attempted=res["attempted"],
        failed=res["failed"],
        failed_frac=res["failed"] / res["attempted"],
        failed_by_kind=res["failed_by_kind"],
        failure_examples=res["examples"],
        known_defect_omega=res.get("omega_defect"),
        detail=detail,
    )
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
