"""fsrkit benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload dec-l3 --seed 7 --seconds 30 --trace 0

Runs from the root of a source checkout and imports fsrkit from its
`src/` directory, never from an installed copy.  One single-threaded
client takes one input circuit at a time through the public API and
checks every output.  A run measures a fixed number of inputs, drawn from
--seed; each workload sets how many it takes at the run length in
BENCHMARK.json, and --seconds scales that number.  A faster build
measures the same inputs in less time.  Every time is reported in
reference seconds: wall seconds scaled by how much slower or faster than
usual a fixed calibration task ran just before and after, which takes
out the host's speed swings (see calibrate).  With --trace 0 the
last line of stdout is a JSON object holding the end-to-end metrics; with
--trace 1 it holds the per-layer metrics, read from spans recorded around
each call into fsrkit while the same batch runs a second time.  The run
context and the raw samples (and spans, when traced) go to
`.perfbench-out/` in the checkout.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: set-up runs this many times per run; setup_s is the median
SETUP_REPEATS = 9

#: per-layer spans timed in set-up (median over the set-up runs) rather
#: than per instance of the batch
SETUP_SPANS = ("lfsr.lfsr_of_table", "verify.population")

#: seconds the calibration task takes at the reference host speed; every
#: reported time is wall time scaled by this over the task's time next to it
CAL_REF_S = 0.012


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_spec() -> dict:
    """BENCHMARK.json names the workloads and the metrics with their units."""
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")


def units(spec: dict, key: str) -> dict:
    return {m["name"]: m["unit"] for m in spec[key]}


def import_package():
    if not (SRC / "fsrkit" / "__init__.py").is_file():
        fail(f"no fsrkit sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import fsrkit
    if Path(fsrkit.__file__).resolve().parent != SRC / "fsrkit":
        fail(f"imported fsrkit from {fsrkit.__file__}, not from {SRC}")


def commit_id() -> str:
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
    return "unknown (not a git checkout; see src_sha256)"


def src_digest() -> str:
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        h.update(str(p.relative_to(SRC)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def run_context(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit_id(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def calibrate() -> float:
    """Wall seconds that a fixed pure-Python task takes now: shifts, xor
    and masks on 2048-bit integers, like the package's lane evaluation,
    and no code of the package.  On a shared host the speed moves by up
    to 1.6x over tens of seconds, from load outside the guest, and this
    task slows with it."""
    x = (1 << 2048) // 3
    out = [0] * 256
    start = perf_counter()
    for i in range(24000):
        out[i & 255] = ((x >> (i & 63)) ^ (x << 1)) & x
    return perf_counter() - start


def reference_s(wall: float, before: float, after: float) -> float:
    """Wall seconds at the reference host speed, from the calibration
    task's times just before and just after the interval."""
    return wall * 2 * CAL_REF_S / (before + after)


class SetUps:
    """The workload's set-up, run SETUP_REPEATS times: once before the
    batch and the rest spread evenly over it, between instances and
    outside their timing.  The machine's speed drifts over seconds, so
    repeats taken back to back would all see the same instant.  Like an
    instance, each starts after a full collection, so that garbage left
    by the instance before it is not collected inside its timing.  Keeps
    reference seconds, wall seconds and their ratio per set-up."""

    def __init__(self, make, tr):
        self.make = make
        self.tr = tr
        self.times = []
        self.walls = []
        self.scale = {}

    def run(self):
        gc.collect()
        self.tr.instance = f"setup-{len(self.times)}"
        before = calibrate()
        t0 = perf_counter()
        wl = self.make()
        wall = perf_counter() - t0
        ref = reference_s(wall, before, calibrate())
        self.times.append(ref)
        self.walls.append(wall)
        self.scale[self.tr.instance] = ref / wall
        return wl

    def due(self, done: int, total: int) -> None:
        """Run the set-ups that are due after `done` of `total` instances."""
        while (len(self.times) < SETUP_REPEATS
               and done * SETUP_REPEATS >= total * len(self.times)):
            self.run()


class Clock:
    """Times one instance in reference seconds.  lap() ends a segment,
    runs the calibration task outside the timing and starts the next
    segment, so that each segment is scaled by the host's speed around
    it; a workload calls it between the long steps of an instance."""

    def __init__(self, cal: float):
        self.cal = cal
        self.ref = 0.0
        self.wall = 0.0
        self.start = perf_counter()

    def lap(self) -> None:
        took = perf_counter() - self.start
        after = calibrate()
        self.ref += reference_s(took, self.cal, after)
        self.wall += took
        self.cal = after
        self.start = perf_counter()


def run_batch(wl, tr, between=None):
    """Closed loop, one client: take every item of the workload in turn,
    starting the next instance only when the previous one has finished.
    A full collection runs before each instance, outside its timing, so
    that each starts from the same collector state, and the calibration
    task runs between instances.  Calls between(done, total) after each.
    Returns ([(sat, reference seconds, ok, wall seconds)], reference
    seconds of all instances)."""
    samples = []
    failures_shown = 0
    busy = 0.0
    cal = calibrate()
    for i, item in enumerate(wl.items):
        gc.collect()
        tr.instance = i
        clock = Clock(cal)
        try:
            with tr.span("instance"):
                wl.instance(item, tr, clock.lap)
            ok = True
        except Exception:
            ok = False
            if failures_shown < 3:
                failures_shown += 1
                print(f"instance {i} (sat={item.sat}) failed:",
                      file=sys.stderr)
                traceback.print_exc()
        clock.lap()
        cal = clock.cal
        busy += clock.ref
        samples.append((item.sat, clock.ref, ok, clock.wall))
        if between is not None:
            between(i + 1, len(wl.items))
    return samples, busy


def end_to_end(samples, batch_s, setup_times) -> tuple:
    ok_times = [t for _, t, ok, _ in samples if ok]

    def median_of(sat):
        times = [t for s, t, ok, _ in samples if ok and s == sat]
        # with no checked instance of this verdict, charge the whole batch
        return statistics.median(times) if times else batch_s

    if len(ok_times) >= 2:
        p90 = statistics.quantiles(ok_times, n=10, method="inclusive")[8]
    else:
        p90 = ok_times[0] if ok_times else batch_s
    metrics = {
        "instances_per_s": len(ok_times) / batch_s,
        "sat_s_p50": median_of(True),
        "unsat_s_p50": median_of(False),
        "instance_s_p90": p90,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup_times),
    }
    beyond = sum(1 for t in ok_times if t > p90)
    notes = {
        "sat_samples": sum(1 for s, _, ok, _ in samples if ok and s),
        "unsat_samples": sum(1 for s, _, ok, _ in samples if ok and not s),
        "p90_samples": len(ok_times),
        "p90_samples_beyond": beyond,
        "batch_wall_s": sum(wall for *_, wall in samples),
        "batch_reference_s": batch_s,
    }
    return metrics, notes


def per_layer(names, tr, traced, setup_scale: dict, overhead: float) -> dict:
    """Per-instance means over the traced batch; span self times are in
    reference seconds, scaled like the instance or set-up they ran in."""
    n = len(traced)
    self_t = tr.self_times({i: ref / wall
                            for i, (_, ref, _, wall) in enumerate(traced)})
    counts = tr.counts(set(range(n)))
    setup_t = {name: statistics.median(
        tr.self_times({k: f}).get(name, 0.0) for k, f in setup_scale.items())
        for name in SETUP_SPANS}
    metrics = {}
    for name in names:
        if name.endswith("_s"):
            span = name[:-2]
            metrics[name] = (setup_t[span] if span in SETUP_SPANS
                             else self_t.get(span, 0.0) / n)
        else:
            metrics[name] = counts.get(name, 0) / n
    tried = counts.get("analysis.brute_candidates", 0)
    metrics["analysis.brute_hit_ratio"] = (
        counts.get("analysis.brute_found", 0) / tried if tried else 0.0)
    metrics["trace.overhead_ratio"] = overhead
    return metrics


def main(argv=None) -> int:
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=101)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        fail("--seconds must be positive")

    import_package()
    import workloads
    from spans import NullTracer, Tracer

    cls = workloads.WORKLOADS[args.workload]
    # a fixed number of pairs, so that every build times the same inputs
    pairs = max(1, round(cls.PAIRS * args.seconds / spec["run_seconds"]))
    context = dict(run_context(args), pairs=pairs)
    print("context " + json.dumps(context, sort_keys=True))
    out_dir = ROOT / ".perfbench-out"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        tr = Tracer() if args.trace else NullTracer()
        setups = SetUps(lambda: cls(args.seed, tr, str(workdir), pairs), tr)
        wl = setups.run()
        samples, batch_s = run_batch(wl, NullTracer(), between=setups.due)
        setup_times = setups.times
        record = {"context": context, "setup_s": setup_times,
                  "setup_wall_s": setups.walls, "samples": samples,
                  "batch_s": batch_s}
        if args.trace:
            traced, traced_batch_s = run_batch(wl, tr)
            samples = samples + traced
            metric_units = units(spec, "per_layer")
            metrics = per_layer(metric_units, tr, traced, setups.scale,
                                traced_batch_s / batch_s)
            record.update(traced_samples=traced,
                          traced_batch_s=traced_batch_s, spans=tr.dump())
        else:
            metrics, notes = end_to_end(samples, batch_s, setup_times)
            metric_units = units(spec, "end_to_end")
            record["notes"] = notes
            for key, val in notes.items():
                print(f"note {key} {val}")
        failed = sum(1 for _, _, ok, _ in samples if not ok)
        print(f"note failed_ratio {failed / len(samples):.6g} "
              f"({failed}/{len(samples)})")
        for name, val in metrics.items():
            print(f"metric {name} {val:.6g} {metric_units[name]}")
        record["metrics"] = metrics
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        (out_dir / name).write_text(json.dumps(record, indent=1) + "\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": val, "unit": metric_units[name]}
                    for name, val in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
