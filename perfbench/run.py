"""g2forge benchmark.

    python3 perfbench/run.py --workload {verify,relation-probe,inspect} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The benchmark imports the package from
`src/`, makes its inputs from the seed, and drives one workload as a closed
loop with one caller in this process: each op starts when the previous one
has returned.  Every op's output is checked (see `workloads.py`); a failed
check, an exception or a nonzero exit counts as a failed op.

`--trace 0` measures the end-to-end metrics with the program untouched.
Time metrics are scaled to a nominal host speed measured in the same run
(see `calibrate.py`); each printed line also gives the value as measured.
`--trace 1` wraps the layer modules from outside (see `tracer.py`) and
reports per-layer metrics per op, from traced ops interleaved with untraced
copies of the same ops.  The spans go to `.perfbench/`.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calibrate  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
REQUIRED = ("src/g2forge/cli.py", "tests/coverage_manifest.json", "tests/goldens/wedge2_display.json")
SETUP_REPEATS = 25
KERNEL_INTERVAL_S = 1.0
SPAN_DIR = ".perfbench"

_IMPORT_TIMER = (
    "import sys, time\n"
    "sys.path.insert(0, 'src')\n"
    "t = time.perf_counter()\n"
    "import g2forge.cli\n"
    "d = time.perf_counter() - t\n"
    "print(d, g2forge.cli.__file__)\n"
)


class Refused(Exception):
    """The benchmark cannot run here; reported without a result."""


class Recorder:
    """Counts attempted and failed ops and keeps the first few reasons."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def record(self, index: int, result) -> None:
        self.attempted += 1
        if isinstance(result, Exception):
            reason = f"{self.workload.name} op raised {type(result).__name__}: {result}"
        else:
            reason = self.workload.check(index, result)
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(reason)

    @property
    def error_ratio(self) -> float:
        return self.failed / self.attempted


def timed(workload, index: int) -> Tuple[object, float]:
    t0 = time.perf_counter()
    try:
        result = workload.run(workload.pool[index])
    except Exception as exc:  # a failing op is counted, not fatal
        result = exc
    return result, time.perf_counter() - t0


def percentile_tail(samples: List[float]) -> Tuple[float, int]:
    """The highest whole percentile with at least ten samples beyond it
    (nearest rank), but never below the median: with an even count the
    nearest-rank p50 is the lower middle sample, so the median is taken."""
    n = len(samples)
    ordered = sorted(samples)
    p = max(50, math.floor(100 * (n - 10) / n))
    rank = max(1, math.ceil(p * n / 100))
    return max(ordered[rank - 1], statistics.median(ordered)), p


def import_seconds(root: Path) -> float:
    """Wall time for a fresh interpreter to import `g2forge.cli`."""
    proc = subprocess.run([sys.executable, "-I", "-c", _IMPORT_TIMER], cwd=root,
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise Refused(f"importing g2forge.cli failed: {proc.stderr.strip().splitlines()[-1:]}")
    seconds, path = proc.stdout.split(maxsplit=1)
    if not Path(path.strip()).resolve().is_relative_to(root / "src"):
        raise Refused(f"g2forge.cli was imported from {path.strip()}, not from {root / 'src'}")
    return float(seconds)


def import_package(root: Path):
    sys.path.insert(0, str(root / "src"))
    mods = {name: importlib.import_module(f"g2forge.{name}") for name in LAYERS}
    if not Path(mods["cli"].__file__).resolve().is_relative_to(root / "src"):
        raise Refused(f"g2forge was imported from {mods['cli'].__file__}, not from {root / 'src'}")
    return mods


def paired_setup() -> Tuple[float, float]:
    """One fresh import and the reference kernel timed right after it."""
    return import_seconds(ROOT), calibrate.kernel_seconds()


def warm_up(workload, rec: Recorder) -> None:
    """One untimed op per pool entry: fills lazy tables and records the
    reference output each later op is compared with."""
    for index in range(len(workload.pool)):
        rec.record(index, timed(workload, index)[0])


def run_untraced(workload, rec: Recorder, seconds: float):
    """Returns the op times, the host speed factor of each op, the set-up
    times, each paired with a reference-kernel time taken right after it,
    and the reference-kernel times.  The fresh-interpreter imports and the
    kernel runs are spread evenly over the run, between ops, so that they
    see the same host speed as the ops."""
    times: List[float] = []
    brackets: List[int] = []   # op i ran between kernel[brackets[i] - 1] and kernel[brackets[i]]
    setup: List[Tuple[float, float]] = []
    kernel = [calibrate.kernel_seconds()]
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        for index in workload.order():
            result, dt = timed(workload, index)
            times.append(dt)
            brackets.append(len(kernel))
            rec.record(index, result)
            now = time.perf_counter()
            if now >= start + len(setup) * seconds / SETUP_REPEATS and len(setup) < SETUP_REPEATS:
                setup.append(paired_setup())
            if now >= start + len(kernel) * KERNEL_INTERVAL_S:
                kernel.append(calibrate.kernel_seconds())
            if now >= deadline:
                while len(setup) < SETUP_REPEATS:
                    setup.append(paired_setup())
                kernel.append(calibrate.kernel_seconds())
                factors = [calibrate.NOMINAL_S * 2 / (kernel[b - 1] + kernel[b]) for b in brackets]
                return times, factors, setup, kernel


def run_traced(workload, rec: Recorder, tracer: Tracer, seconds: float):
    """Whole passes over the pool; each op runs once traced and once
    untraced, in alternating order.  Passes repeat while another fits in
    the time, so the per-op counts do not depend on the machine's speed."""
    traced: List[float] = []
    plain: List[float] = []
    start = time.perf_counter()
    passes = 0
    while True:
        t_pass = time.perf_counter()
        for index in range(len(workload.pool)):
            for trace_it in ((True, False) if (passes + index) % 2 else (False, True)):
                if trace_it:
                    t0 = time.perf_counter()
                    with tracer.op(tracer.ops):
                        try:
                            result = workload.run(workload.pool[index])
                        except Exception as exc:  # a failing op is counted, not fatal
                            result = exc
                    traced.append(time.perf_counter() - t0)
                else:
                    result, dt = timed(workload, index)
                    plain.append(dt)
                rec.record(index, result)
        passes += 1
        now = time.perf_counter()
        if now + (now - t_pass) > start + seconds:
            return traced, plain


FUNCTION_METRICS = (
    ("algebra.MPoly.mul", ("calls", "self_s")),
    ("algebra.MPoly.add", ("calls", "self_s")),
    ("algebra.RFrac.new", ("calls", "self_s")),
    ("algebra.RFrac.mul", ("calls",)),
    ("algebra.RFrac.add", ("calls",)),
    ("algebra.MPoly.divexact", ("calls",)),
    ("algebra.SymMatrix.mul", ("calls", "self_s")),
    ("algebra.SymMatrix.subs", ("calls", "self_s")),
    ("algebra.SymMatrix.rank", ("calls", "self_s")),
    ("triform.AltTriForm.pullback", ("calls", "incl_s")),
    ("triform.weyl_word_to_s7", ("calls", "incl_s")),
    ("triform.coeff_relations_probe", ("incl_s",)),
    ("triform.lie_basis", ("calls",)),
    ("roots.critical_set", ("calls",)),
    ("roots.dot_act", ("calls",)),
    ("phin.is_admissible", ("calls",)),
    ("arthur.orbit_table", ("incl_s",)),
    ("cli.run", ("calls",)),
)


def per_layer_metrics(tracer: Tracer, overhead: float) -> Dict[str, Tuple[float, str]]:
    ops = tracer.ops
    layer_self, layer_incl = tracer.layer_times()
    m: Dict[str, Tuple[float, str]] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self[layer] / ops, "s")
    m["lattice.incl_s"] = (layer_incl["lattice"] / ops, "s")
    for name, kinds in FUNCTION_METRICS:
        fid = tracer.function(name)
        for kind in kinds:
            if kind == "calls":
                m[f"{name}.calls"] = (tracer.calls[fid] / ops, "count")
            else:
                m[f"{name}.{kind}"] = (getattr(tracer, kind)[fid] / ops, "s")
    divexact = tracer.calls[tracer.function("algebra.MPoly.divexact")]
    m["algebra.MPoly.divexact.hit_ratio"] = (tracer.divexact_hits / divexact if divexact else 0.0, "ratio")
    dense = tracer.dense_products
    m["algebra.SymMatrix.mul.nonzero_product_ratio"] = (
        tracer.nonzero_products / dense if dense else 0.0, "ratio")
    m["triform.LieG2.builds"] = (tracer.calls[tracer.function("triform.LieG2.new")] / ops, "count")
    m["trace.overhead_s"] = (overhead, "s")
    return m


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args: argparse.Namespace) -> Tuple[Recorder, Dict[str, Tuple[float, str]], Dict[str, str]]:
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        raise Refused(f"not a g2forge checkout: missing {', '.join(missing)}")
    if sys.flags.optimize:
        raise Refused("refusing to run under python -O: the relation probe checks its "
                      "relations only in an assert, so -O would measure another program")
    os.chdir(ROOT)
    # The golden check reads tests/goldens only when no output directory is set.
    os.environ.pop("G2FORGE_OUTPUT_DIR", None)

    import_seconds(ROOT)   # checks the import and compiles bytecode; not kept
    mods = import_package(ROOT)
    g2 = argparse.Namespace(**mods)
    workload = WORKLOADS[args.workload](args.seed, g2, str(ROOT))
    rec = Recorder(workload)
    warm_up(workload, rec)
    if args.trace:
        tracer = Tracer(mods)
        traced, plain = run_traced(workload, rec, tracer, args.seconds)
        overhead = statistics.median(traced) - statistics.median(plain)
        metrics = per_layer_metrics(tracer, overhead)
        note = f"per op over {tracer.ops} traced ops"
        notes = {name: note for name in metrics}
        notes["trace.overhead_s"] = f"median of {len(traced)} traced minus median of {len(plain)} untraced ops"
        os.makedirs(SPAN_DIR, exist_ok=True)
        tracer.write_spans(os.path.join(SPAN_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    else:
        times, factors, setup, kernel = run_untraced(workload, rec, args.seconds)
        # Each op is scaled to the nominal host speed by the kernel runs on
        # either side of it, each import by the kernel run after it: the
        # host's speed swings within seconds, so a local factor tracks it
        # better than one factor for the whole run.
        scaled_times = [t * f for t, f in zip(times, factors)]
        n = len(times)
        tail, p = percentile_tail(scaled_times)
        raw = {"op_s_p50": statistics.median(times), "op_s_tail": percentile_tail(times)[0],
               "ops_per_s": n / sum(times), "setup_s": statistics.median(s for s, _k in setup)}
        metrics = {
            "op_s_p50": (statistics.median(scaled_times), "s"),
            "op_s_tail": (tail, "s"),
            "ops_per_s": (n / sum(scaled_times), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (statistics.median(calibrate.NOMINAL_S * s / k for s, k in setup), "s"),
        }
        as_measured = "{:.6g} as measured"
        notes = {
            "op_s_p50": f"median of {n} ops; " + as_measured.format(raw["op_s_p50"]),
            "op_s_tail": f"p{p} of {n} ops; " + as_measured.format(raw["op_s_tail"]),
            "ops_per_s": f"{n} ops over {sum(scaled_times):.3f} s inside ops; "
                         + as_measured.format(raw["ops_per_s"]),
            "peak_rss_mb": "ru_maxrss of the benchmark process",
            "setup_s": f"median of {len(setup)} fresh imports of g2forge.cli spread over the run, "
                       f"each scaled by the kernel run after it; " + as_measured.format(raw["setup_s"]),
        }
        print(f"host speed factors: median {statistics.median(factors):.4f}, range "
              f"{min(factors):.4f}-{max(factors):.4f} over {n} ops, from {len(kernel)} "
              f"reference-kernel runs (nominal {calibrate.NOMINAL_S} s)")
    return rec, metrics, notes


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    try:
        rec, metrics, notes = run(args)
    except Refused as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    context = f"python {platform.python_version()}, nproc {len(os.sched_getaffinity(0))}, seed {args.seed}"
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:15} {name:45} {value:14.6g} {unit:6} ({notes[name]}; {context})")
    print(f"{args.workload:15} {'error_ratio':45} {rec.error_ratio:14.6g} {'ratio':6} "
          f"({rec.failed} failed of {rec.attempted} ops; {context})")
    for reason in rec.reasons:
        print(f"FAILED: {reason}")
    print(json.dumps({
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
