"""Checks that the benchmark's own gates and counts can be trusted.

    python3 perfbench/selfcheck.py

Run from the root of a checkout; takes about two minutes.  It checks that

1. each workload's output gate rejects a tampered result, so that the
   error ratio rises from 0;
2. `python -O` is refused without a result;
3. two traced runs at one seed give identical per-op counts, and the
   relation probe makes no `RFrac` or `SymMatrix` work;
4. the metrics printed match the lists in BENCHMARK.json;
5. while tracing, nothing but the tracer still holds an unwrapped function.

Exits 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import copy
import gc
import json
import os
import subprocess
import sys
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import ROOT, Recorder, import_package  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import Inspect, RelationProbe, Verify  # noqa: E402

RUN = [sys.executable, str(Path(__file__).resolve().parent / "run.py")]
SEED = 7
failures = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def gate_rejects(workload, index, good, bad, what: str) -> None:
    """Feed a good result, then a tampered one, through one recorder."""
    rec = Recorder(workload)
    rec.record(index, good)
    before = rec.error_ratio
    rec.record(index, bad)
    expect(before == 0 and rec.error_ratio > 0, f"{workload.name} gate rejects {what} "
           f"(error_ratio {before} -> {rec.error_ratio})")


def check_verify_gate(g2, seed) -> None:
    wl = Verify(seed, g2, str(ROOT))
    report, text = wl.run(wl.pool[0])

    def tampered(edit):
        bad = copy.deepcopy(report)
        edit({f"{s['name']}/{c['id']}": c for s in bad["suites"] for c in s["checks"]})
        return bad, json.dumps(bad, indent=2, sort_keys=True)

    def flip_to_fail(checks):
        next(c for c in checks.values() if c["status"] == "pass")["status"] = "fail"

    def rename(checks):
        checks["roots/weyl-group-order"]["id"] = "weyl-group-size"

    def golden_finding(checks):
        # Keep the totals at 46/8/0 so that only the golden condition fails.
        next(c for c in checks.values() if c["status"] == "finding")["status"] = "pass"
        checks[Verify.GOLDEN_CHECK]["status"] = "finding"

    for what, edit in (("a status flipped to fail", flip_to_fail), ("a renamed check id", rename),
                       ("a golden check that is not pass", golden_finding)):
        gate_rejects(Verify(seed, g2, str(ROOT)), 0, (report, text), tampered(edit), what)
    gate_rejects(Verify(seed, g2, str(ROOT)), 0, (report, text), (report, text + " "),
                 "a repeated seed with different bytes")


def check_probe_gate(g2, seed) -> None:
    wl = RelationProbe(seed, g2, str(ROOT))
    good = wl.run(wl.pool[0])
    gate_rejects(RelationProbe(seed, g2, str(ROOT)), 0, good, dict(good, products_checked=4679),
                 "a wrong product count")

    class WithTransvection(RelationProbe):
        """Adds I + x*E13, which is outside the parabolic, to the recheck."""

        def word_products(self, words):
            SymMatrix, RFrac = g2.algebra.SymMatrix, g2.algebra.RFrac
            x, zero = RFrac.var("x"), RFrac.const(0)
            e13 = SymMatrix([[x if (i, j) == (0, 2) else zero for j in range(7)] for i in range(7)])
            return super().word_products(words) + [("transvection", SymMatrix.identity(7) + e13)]

    rec = Recorder(WithTransvection(seed, g2, str(ROOT)))
    rec.record(0, good)
    expect(rec.error_ratio > 0, f"relation-probe recheck rejects a product outside the parabolic "
           f"(error_ratio {rec.error_ratio})")


def check_inspect_gate(g2, seed) -> None:
    wl = Inspect(seed, g2, str(ROOT))
    index = {argv[0]: i for i, argv in reversed(list(enumerate(wl.pool)))}
    results = {cmd: wl.run(wl.pool[i]) for cmd, i in index.items() if cmd in ("roots", "triform", "arthur")}

    def edited(cmd, edit):
        payload = json.loads(results[cmd][1])
        edit(payload)
        return 0, json.dumps(payload, indent=2, sort_keys=True) + "\n"

    code, text = results["roots"]
    i = index["roots"]
    gate_rejects(Inspect(seed, g2, str(ROOT)), i, (code, text), (1, text), "exit code 1")
    gate_rejects(Inspect(seed, g2, str(ROOT)), i, (code, text), (0, text[:-3]), "output that is not JSON")
    gate_rejects(Inspect(seed, g2, str(ROOT)), i, (code, text), (0, text.replace("1", "2", 1)),
                 "a response that differs from the first")
    # Wrong from the first response on: only the invariants can catch it.
    cases = (
        ("roots", "11 Weyl elements", lambda p: p["weyl_elements"].pop()),
        ("triform", "a stabilizer that fails", lambda p: p["form_preserved_by"].update(torus=False)),
        ("arthur", "wrong orbit dimensions", lambda p: p["orbits"][1].update(dim=7)),
    )
    for cmd, what, edit in cases:
        rec = Recorder(Inspect(seed, g2, str(ROOT)))
        rec.record(index[cmd], edited(cmd, edit))
        expect(rec.error_ratio > 0, f"inspect gate rejects {what} (error_ratio {rec.error_ratio})")


def check_aliases(mods) -> None:
    """A reference the tracer does not patch (a tuple or list of functions,
    a closure cell, a bound method) would let calls bypass the wrapper."""
    gc.collect()   # drop the wrappers of earlier tracers
    tracer = Tracer(mods)
    own = {id(tracer.wrapped), id(tracer._patches)}
    own |= {id(x) for x in tracer._patches} | {id(x) for x in tracer.wrapped.values()}
    own |= {id(c) for _fn, wrapper in tracer.wrapped.values() for c in wrapper.__closure__}
    left = set()
    with tracer.op(0):
        for fn, _wrapper in tracer.wrapped.values():
            for ref in gc.get_referrers(fn):
                if id(ref) in own or isinstance(ref, (types.FrameType, staticmethod, classmethod)):
                    continue
                if isinstance(ref, dict) and "__wrapped__" in ref:   # a wrapper's own __dict__
                    continue
                left.add(fn.__qualname__)
    expect(not left, f"tracer patches every alias of {len(tracer.wrapped)} wrapped functions"
           f"{'; unpatched: ' + ', '.join(sorted(left)) if left else ''}")


def bench(workload, seed, trace, optimize=False):
    cmd = RUN[:1] + (["-O"] if optimize else []) + RUN[1:] + [
        "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return proc.returncode, result


def check_runs(seed) -> None:
    code, result = bench("relation-probe", seed, 0, optimize=True)
    expect(code != 0 and result is None, f"python -O is refused without a result (exit {code})")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    code, result = bench("inspect", seed, 0)
    expect(result is not None and set(result["metrics"]) == end_to_end and result["correct"],
           "untraced run prints exactly the end_to_end metrics of BENCHMARK.json")

    for name in sorted(w["name"] for w in spec["workloads"]):
        runs = [bench(name, seed, 1)[1] for _ in range(2)]
        if None in runs:
            expect(False, f"{name}: traced runs completed")
            continue
        expect(all(set(r["metrics"]) == per_layer and r["correct"] for r in runs),
               f"{name}: traced run prints exactly the per_layer metrics of BENCHMARK.json")
        counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] in ("count", "ratio")}
                  for r in runs]
        differ = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
        expect(not differ, f"{name}: per-op counts repeat exactly across two traced runs "
               f"({len(counts[0])} counts{'; differ: ' + ', '.join(differ) if differ else ''})")
        if name == "relation-probe":
            zero = ("algebra.RFrac.new.calls", "algebra.SymMatrix.mul.calls")
            expect(all(counts[0][k] == 0 for k in zero), f"relation-probe: {' and '.join(zero)} are 0")


def main() -> int:
    os.chdir(ROOT)
    os.environ.pop("G2FORGE_OUTPUT_DIR", None)
    mods = import_package(ROOT)
    g2 = types.SimpleNamespace(**mods)
    check_aliases(mods)
    check_verify_gate(g2, SEED)
    check_probe_gate(g2, SEED)
    check_inspect_gate(g2, SEED)
    check_runs(SEED)
    print(f"{len(failures)} self-check(s) failed" if failures else "all self-checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
