"""The three benchmark workloads and the output gate of each.

A workload builds a pool of op inputs from the benchmark seed, runs one op
(the timed part), and checks an op's result (untimed).  `check` returns
None for a good result and a one-line reason otherwise.

- `verify`: `cli.run_verify(seed, {})` on seeds drawn from the benchmark
  seed, serialised as the CLI does.  Symbolic 7x7 `SymMatrix` products,
  `RFrac` normalisation and `AltTriForm.pullback` dominate it.
- `relation-probe`: `triform.coeff_relations_probe(4)`, pure `MPoly`
  multiply and add with no `RFrac` or `SymMatrix` work.  It is the workload
  on which a `SymMatrix`/`RFrac` change should move nothing.
- `inspect`: a seeded stream of short inspection subcommands through
  `cli.run(argv)`, where argparse, JSON encoding, numeric specialisation and
  small constant operations carry weight.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from collections import Counter
from fractions import Fraction
from typing import Dict, List, Optional


class Workload:
    name = ""

    def __init__(self, seed: int, g2, root: str):
        self.g2 = g2            # namespace of the imported g2forge modules
        self.root = root
        self.rng = random.Random(f"{self.name}:{seed}")
        self.pool = self.make_pool()
        self.reference: Dict[int, object] = {}

    def make_pool(self) -> List[object]:
        raise NotImplementedError

    def order(self) -> List[int]:
        """Pool indices for one round of the timed stream."""
        return list(range(len(self.pool)))

    def run(self, inp):
        raise NotImplementedError

    def check(self, index: int, result) -> Optional[str]:
        raise NotImplementedError


class Verify(Workload):
    name = "verify"
    STATUS_COUNTS = {"pass": 46, "finding": 8, "fail": 0}
    GOLDEN_CHECK = "wedge2/golden-displayed-blocks"

    def make_pool(self):
        with open(f"{self.root}/tests/coverage_manifest.json", encoding="utf-8") as fh:
            self.manifest = sorted(json.load(fh)["checks"])
        return [self.rng.randrange(1, 10**6) for _ in range(2)]

    def run(self, seed):
        report = self.g2.cli.run_verify(seed, {})
        return report, json.dumps(report, indent=2, sort_keys=True)

    def check(self, index, result):
        report, text = result
        checks = {f"{s['name']}/{c['id']}": c["status"] for s in report["suites"] for c in s["checks"]}
        ids = [f"{s['name']}/{c['id']}" for s in report["suites"] for c in s["checks"]]
        if sorted(ids) != self.manifest:
            return "check ids differ from tests/coverage_manifest.json"
        counts = Counter(checks.values())
        if {k: counts.get(k, 0) for k in self.STATUS_COUNTS} != self.STATUS_COUNTS or sum(counts.values()) != 54:
            return f"statuses {dict(counts)}, expected {self.STATUS_COUNTS}"
        if checks[self.GOLDEN_CHECK] != "pass":
            return f"{self.GOLDEN_CHECK} is {checks[self.GOLDEN_CHECK]}"
        ref = self.reference.setdefault(index, text)
        if text != ref:
            return f"seed {self.pool[index]}: report differs from the first report for that seed"
        return None


class RelationProbe(Workload):
    name = "relation-probe"
    LENGTH = 4
    EXPECTED = {"max_length": 4, "products_checked": 8 + 64 + 512 + 4096, "generators": 8}
    RECHECK_WORDS = 10

    def make_pool(self):
        return [self.LENGTH]   # the input is fixed; the seed only picks recheck words

    def run(self, length):
        return self.g2.triform.coeff_relations_probe(length)

    def check(self, index, result):
        if result != self.EXPECTED:
            return f"probe returned {result}, expected {self.EXPECTED}"
        return self.recheck(self.word_products(self.sample_words()))

    def sample_words(self) -> List[List[str]]:
        names = self.g2.triform.GENERATOR_NAMES
        return [
            [self.rng.choice(names) for _ in range(self.rng.randint(1, self.LENGTH))]
            for _ in range(self.RECHECK_WORDS)
        ]

    def word_products(self, words) -> list:
        """Each word as a `SymMatrix` product of parabolic generators with
        fresh symbols per position."""
        tri = self.g2.triform
        out = []
        for word in words:
            product = tri.parabolic_generator(word[0], "1")
            for pos, name in enumerate(word[1:], start=2):
                product = product * tri.parabolic_generator(name, str(pos))
            out.append(("*".join(word), product))
        return out

    def recheck(self, products) -> Optional[str]:
        """Independent of the probe's polynomial side path: the relations
        hold on each product, evaluated through `SymMatrix`."""
        for label, product in products:
            if not self.g2.triform.coeff_relations_hold(product):
                return f"coefficient relations fail on {label}"
        return None


def _rational(rng: random.Random, nums, dens) -> str:
    return str(Fraction(rng.choice(nums), rng.choice(dens)))


class Inspect(Workload):
    name = "inspect"
    ORBIT_DIMS = [0, 6, 8, 10, 12]

    def make_pool(self):
        """One round of requests: one argv per subcommand line of the
        package README's command-line section, plus the three `phin` modes
        that line does not use.  Each argv runs once a round, so seeds vary
        only the parameters, never the mix."""
        r = self.rng
        sp_values = ("0", "1/2", "1", "3/2", "2", "3")
        a = _rational(r, [n for n in range(-5, 6) if n], range(1, 6))
        sp = r.choice(("0", "1/2", "1", "3/2", "2"))
        pool = [
            ["roots"],
            ["kostant", "--c1", str(r.randint(0, 5)), "--c2", str(r.randint(0, 5)),
             "--parabolic", r.choice(("alpha", "beta", "borel"))],
            ["triform", f"--a={a}", "--word-length", "2"],
            ["wedge2", "--report", "json"],
            ["arthur", "--orbits", "--packet", str(r.choice((4, 6, 8, 10, 12))),
             "--lift", str(r.randint(1, 5)), str(r.randint(1, 5)),
             "--ledger", str(int(4 * Fraction(sp)) + 5 + r.randint(0, 5)), sp],
        ]
        for mode in ("obstruction", "polygons", "ebc", "distinct"):
            k = r.choice((4, 6, 8)) if mode == "ebc" else r.randint(2, 8)
            pool.append(["phin", "--k", str(k), "--sp", r.choice(sp_values), "--mode", mode])
        return [argv + ["--format", "json"] for argv in pool]

    def order(self):
        idx = list(range(len(self.pool)))
        self.rng.shuffle(idx)
        return idx

    def run(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.g2.cli.run(argv)
        return code, out.getvalue()

    def check(self, index, result):
        code, text = result
        argv = self.pool[index]
        if code != 0:
            return f"{' '.join(argv)}: exit code {code}"
        try:
            payload = json.loads(text)
        except ValueError:
            return f"{' '.join(argv)}: output is not JSON"
        if text != self.reference.setdefault(index, text):
            return f"{' '.join(argv)}: response differs from the first response"
        return self.invariants(argv, payload)

    def invariants(self, argv, payload) -> Optional[str]:
        cmd = argv[0]
        if cmd == "roots" and len(payload["weyl_elements"]) != 12:
            return "roots: expected 12 Weyl elements"
        if cmd == "triform":
            if not all(payload["form_preserved_by"].values()):
                return "triform: form not preserved by every stabilizer"
            length = int(argv[argv.index("--word-length") + 1])
            if payload["relation_probe"]["products_checked"] != sum(8**i for i in range(1, length + 1)):
                return "triform: wrong number of probe products"
        if cmd == "arthur" and "--orbits" in argv and [o["dim"] for o in payload["orbits"]] != self.ORBIT_DIMS:
            return f"arthur: orbit dimensions are not {self.ORBIT_DIMS}"
        return None


WORKLOADS = {w.name: w for w in (Verify, RelationProbe, Inspect)}
