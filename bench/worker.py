"""One benchmark worker: a fresh interpreter that runs operations one at a time.

Usage: ``python bench/worker.py '<json spec>'`` with ``lgsim`` importable.
The worker imports ``lgsim`` first and prints ``ready`` at once, so the
parent can time interpreter start plus the package import.  With
``"mode": "probe"`` it exits there.  Otherwise it runs the spec's
operations in a closed loop until its time slice ends, times each call into
lgsim, checks each result, and prints one JSON line of results.  Between
ops it times ``pace``'s reference loop, which the parent scales round times
by.

With ``"trace": true`` the slice is split in two: the first half runs
untraced, the second re-runs exactly the same operations under
``tracing.Tracer``, so the two halves give the tracing overhead on equal
work.
"""

import json
import resource
import sys
import time


def _inputs(workloads, spec):
    rng = workloads.stream(spec["workload"], spec["seed"], spec["index"])
    index = 0
    while True:
        if spec["workload"] == "sweep-grid":
            yield workloads.sweep_input(rng)
        else:
            yield workloads.point_input(rng, index)
        index += 1


class _Tally:
    def __init__(self):
        self.latencies = []
        self.failed = 0
        self.failed_by_kind = {}
        self.examples = []

    def record(self, op, seconds, problem):
        self.latencies.append(seconds)
        if problem is not None:
            self.failed += 1
            self.failed_by_kind[op["kind"]] = self.failed_by_kind.get(op["kind"], 0) + 1
            if len(self.examples) < 3:
                self.examples.append(f"{op['kind']}: {problem}")


def _run_one(lgsim, run, check, op, tally, after=None):
    clock = time.perf_counter
    start = clock()
    try:
        out = run(lgsim, op)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        tally.record(op, clock() - start, f"raised {type(exc).__name__}: {exc}")
        if after:
            after()
        return
    elapsed = clock() - start
    if after:
        after()
    tally.record(op, elapsed, check(op, out))


def main(lgsim, spec):
    # Imported after lgsim so that the parent's set-up time covers only
    # interpreter start and ``import lgsim``.
    import pace
    import tracing
    import workloads

    run, check = {
        "sweep-grid": (workloads.run_sweep, workloads.check_sweep),
        "point-checks": (workloads.run_point, workloads.check_point),
    }[spec["workload"]]
    inputs = _inputs(workloads, spec)
    done = []
    tally = _Tally()
    budget = spec["seconds"] / (2.0 if spec["trace"] else 1.0)
    # Start another op only while it is expected to end before the slice
    # does, counting on half the mean op time; long ops would overshoot.
    pacer = pace.Pacer()
    start = time.perf_counter()
    deadline = start + budget
    now = start
    while now + (now - start) / max(len(done), 1) / 2.0 < deadline:
        op = next(inputs)
        done.append(op)
        _run_one(lgsim, run, check, op, tally)
        pacer.after(tally.latencies[-1])
        now = time.perf_counter()

    result = {
        "latencies": tally.latencies,
        "attempted": len(tally.latencies),
        "failed": tally.failed,
        "failed_by_kind": tally.failed_by_kind,
        "examples": tally.examples,
        "refs": pacer.samples,
    }
    if spec["trace"]:
        traced = _Tally()
        tracer = tracing.Tracer()
        with tracer:
            for op in done:
                _run_one(lgsim, run, check, op, traced, after=tracer.drain)
        result.update(
            attempted=result["attempted"] + len(traced.latencies),
            failed=result["failed"] + traced.failed,
            traced_ops=len(done),
            untraced_s=sum(tally.latencies),
            traced_s=sum(traced.latencies),
            totals=tracer.totals(),
        )
    result.update(
        rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        lgsim_file=lgsim.__file__,
    )
    if spec["workload"] == "point-checks" and spec["index"] == 0:
        result["omega_defect"] = workloads.omega_defect_probe(lgsim, spec["seed"])
    print(json.dumps(result))


if __name__ == "__main__":
    import lgsim

    print("ready", flush=True)
    spec = json.loads(sys.argv[1])
    if spec.get("mode") != "probe":
        main(lgsim, spec)
