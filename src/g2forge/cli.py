"""Command-line entry point: verification suites over all modules, with
deterministic machine-readable reports, golden-file regression, and
per-module inspection subcommands."""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from fractions import Fraction as Q
from typing import Callable, Dict, Optional, Sequence

from . import arthur, kostant, lattice, phin, triform
from . import roots as rootsmod
from .algebra import RFrac, SymMatrix
from .checks import GOLDEN_PATH, golden_payload, report_has_failures, run_verify, to_json

ENV_OUTPUT_DIR = "G2FORGE_OUTPUT_DIR"


def format_text(report: Dict[str, object]) -> str:
    lines = [f"g2forge {report['version']} verification (seed {report['seed']})"]
    counts = {"pass": 0, "fail": 0, "finding": 0}
    for suite in report["suites"]:
        for c in suite["checks"]:
            counts[c["status"]] += 1
            lines.append(f"[{c['status'].upper():7}] {suite['name']}/{c['id']}: {c['detail']}")
    lines.append(
        f"{counts['pass']} passed, {counts['finding']} findings, {counts['fail']} failed"
    )
    return "\n".join(lines)


def _emit(payload: Dict[str, object]) -> int:
    sys.stdout.write(to_json(payload))
    return 0


# ---------------------------------------------------------------------------
# Subcommand payloads

def payload_roots() -> Dict[str, object]:
    return {
        "weyl_elements": [
            {"name": w.name, "word": w.word, "length": w.length, "matrix": [list(r) for r in w.matrix]}
            for w in rootsmod.WEYL_GROUP
        ],
        "coset_representatives": {
            tag: [w.name for w in rootsmod.minimal_coset_reps(par)]
            for tag, par in rootsmod.PARABOLICS.items()
        },
        "eis_sets": {tag: list(par.eis_words) for tag, par in rootsmod.PARABOLICS.items()},
        "two_rho": {tag: str(rootsmod.two_rho(par)) for tag, par in rootsmod.PARABOLICS.items()},
    }


def payload_kostant(c1: int, c2: int, which: str) -> Dict[str, object]:
    par = {"alpha": rootsmod.P_LONG, "beta": rootsmod.P_SHORT, "borel": rootsmod.BOREL}[which]
    lam = rootsmod.Weight(2 * c1 + c2, 3 * c1 + 2 * c2)
    rows = [
        {
            "w": p.w.name,
            "length": p.degree,
            "levi_highest_weight": str(p.levi_highest_weight),
            "neg_shifted": str(p.neg_shifted),
        }
        for p in kostant.kostant_pieces(par, lam)
    ]
    out: Dict[str, object] = {"parabolic": which, "weight": str(lam), "pieces": rows}
    if which == "alpha":
        out["degree_cases"] = [
            {"degree": c.degree, "k": str(c.k), "s": str(c.s), "w": c.w.name}
            for c in kostant.degree_cases_alpha(c1, c2)
        ]
    return out


def payload_triform(a: Q, word_length: int) -> Dict[str, object]:
    x = RFrac.var("x")
    assignment = {"a": a}
    form = triform.generic_form(a)
    preservation = {}
    for name in triform.ROOT_NAMES:
        g = triform.root_subgroup(name, x).subs(assignment)
        preservation[name] = form.pullback(g) == form
    preservation["torus"] = (
        form.pullback(triform.torus_elem(RFrac.var("t1"), RFrac.var("t2"))) == form
    )
    probe = triform.coeff_relations_probe(word_length)
    dims = [14 - rec.dim for rec in arthur.orbit_table()]
    return {
        "parameter": str(a),
        "form_preserved_by": preservation,
        "relation_probe": probe,
        "centralizer_dims": dims,
    }


def payload_wedge2() -> Dict[str, object]:
    five = lattice.five_dim_wedge_report()
    four = lattice.four_dim_wedge_report()
    elim = lattice.relation_elimination()
    return {
        "five_dim": dict(five),
        "four_dim": dict(four),
        "elimination": {
            "det_natural": str(elim["det_natural"]),
            "det_natural_is_minus_9d3": elim["det_natural_is_minus_9d3"],
            "elimination_preserves_det": elim["elimination_preserves_det"],
            "det_displayed_system_factored": elim["det_displayed_system_factored"],
            "det_displayed_eliminated_is_plus_9d3": elim["det_displayed_eliminated_is_plus_9d3"],
        },
        "display_blocks": golden_payload(),
    }


def payload_phin(k: int, sp: Q, mode: str) -> Dict[str, object]:
    if mode == "polygons":
        m = phin.d_st(k, sp)
        return {
            "newton": phin.newton_polygon(m).to_dict(),
            "hodge": phin.hodge_polygon(m).to_dict(),
            "admissible": phin.is_admissible(m),
        }
    if mode == "ebc":
        m = phin.build_EBc(SymMatrix.identity(2), 1, k, sp)
        return {
            "fil_jumps": m.fil_jumps(),
            "admissible": phin.is_admissible(m),
            "frobenius_relation": m.phi_relation_report(),
        }
    if mode == "obstruction":
        rep = phin.monodromy_obstruction(phin.five_dim_eigenvalues())
        constraints = []
        for cons in sorted(rep["distinguished_constraints"], key=str):
            constraints.append(
                {
                    "constraint": str(cons),
                    "at_k": f"unit^{cons.power} = p^({cons.exponent.eval({'k': k})})",
                }
            )
        return {
            "constraints": constraints,
            "unconditional_pairs": rep["unconditional_pairs"],
            "monodromy_forced_zero": rep["n_forced_zero"],
        }
    # mode == "distinct"
    return {
        "inequations": [
            {"left": i.left, "right": i.right, "reduced": i.reduced, "justification": i.justification}
            for i in phin.distinctness_check(k)
        ]
    }


def payload_arthur(args: argparse.Namespace) -> Dict[str, object]:
    out: Dict[str, object] = {}
    if args.orbits:
        out["orbits"] = [
            {"name": r.name, "dim": r.dim, "component_group": r.component_group}
            for r in arthur.orbit_table()
        ]
        out["subregular_centralizer"] = arthur.subregular_centralizer_report()
    if args.packet is not None:
        plus, minus = arthur.packet_psi_k(args.packet)
        out["packet"] = [
            {
                "kind": m.kind,
                "harish_chandra_param": str(m.harish_chandra_param),
                "cohomology_degrees": sorted(m.cohomology_degrees),
            }
            for m in (plus, minus)
        ]
    if args.lift is not None:
        cov, ks = arthur.lift_inf_char(*args.lift)
        out["lift"] = {
            "coweight": list(cov),
            "factor_weights": list(ks),
            "pairing_consistent": arthur.lift_pairing_consistent(*args.lift),
        }
    if args.ledger is not None:
        rep = arthur.multiplicity_ledger(*args.ledger)
        out["ledger"] = {
            "reduced": rep.reduced,
            "adopted": rep.adopted,
            "bound": list(rep.bound) if rep.bound else None,
            "orientation_divergence": rep.orientation_divergence,
            "identity_checks": arthur.identity_checks(),
        }
    return out


# ---------------------------------------------------------------------------
# Argument parsing and dispatch

def _usage_line(prog: str, message: str) -> str:
    return f"{prog}: error: {message} (see {prog} --help)\n"


def _usage_error(command: str, message: str) -> int:
    """Report an input error of `g2forge <command>` found after parsing;
    the parser reports its own errors in the same one-line form."""
    sys.stderr.write(_usage_line(f"g2forge {command}", message))
    return 2


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads an argument that looks like a negative number as a
        # value, not an option; let a negative fraction such as -1/2 count.
        self._negative_number_matcher = re.compile(r"^-\d+$|^-\d*\.\d+$|^-\d+/\d+$")

    def error(self, message):  # noqa: D401 - argparse API
        self.exit(2, _usage_line(self.prog, message))


MAX_WORD_LENGTH = 5


def _rational(nonzero: bool = False) -> Callable[[str], Q]:
    """An argparse type for rationals such as -1/2, optionally nonzero."""

    def parse(text: str) -> Q:
        try:
            q = Q(text)
        except ZeroDivisionError:
            raise argparse.ArgumentTypeError(f"{text!r} has a zero denominator") from None
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not a rational number") from None
        if nonzero and q == 0:
            raise argparse.ArgumentTypeError(f"{text!r} is not a nonzero rational number")
        return q

    return parse


def _int_in(low: int, high: Optional[int] = None, even: bool = False) -> Callable[[str], int]:
    """An argparse type for integers in [low, high] (no upper bound if high
    is None), optionally even."""
    bound = f"{low}..{high}" if high is not None else f">= {low}"
    kind = "an even integer" if even else "an integer"

    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            n = None
        if n is None or n < low or (high is not None and n > high) or (even and n % 2):
            raise argparse.ArgumentTypeError(f"{text!r} is not {kind} {bound}")
        return n

    return parse


class _Ledger(argparse.Action):
    """`--ledger K SP`: an integer weight and a rational slope with
    SP >= 0 and K > 4*SP + 4, the window in which the ledger is defined."""

    def __call__(self, parser, namespace, values, option_string=None):
        k_text, sp_text = values
        try:
            k = int(k_text)
        except ValueError:
            raise argparse.ArgumentError(self, f"{k_text!r} is not an integer") from None
        try:
            sp = _rational()(sp_text)
        except argparse.ArgumentTypeError as exc:
            raise argparse.ArgumentError(self, str(exc)) from None
        if sp < 0 or not k > 4 * sp + 4:
            raise argparse.ArgumentError(self, f"K={k} and SP={sp} do not satisfy SP >= 0 and K > 4*SP + 4")
        setattr(namespace, self.dest, (k, sp))


def _verify(args: argparse.Namespace) -> int:
    outdir = os.environ.get(ENV_OUTPUT_DIR)
    report_path = os.path.join(outdir, "verify_report.json") if outdir else None
    # Every output file is created before the run, so an unusable location
    # fails fast; the timings file's directory must exist already.
    for what, path, make_dir in (
        ("timings", args.timings, False),
        ("the report", report_path, True),
        ("the golden", GOLDEN_PATH if args.bless else None, True),
    ):
        if path is None:
            continue
        try:
            if make_dir:
                os.makedirs(os.path.dirname(path), exist_ok=True)
            open(path, "w", encoding="utf-8").close()
        except OSError as exc:
            return _usage_error("verify", f"cannot write {what} to {path}: {exc.strerror}")
    if args.bless:
        with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
            fh.write(to_json(golden_payload()))
    timings: Optional[Dict[str, float]] = None if args.timings is None else {}
    report = run_verify(args.seed, timings=timings)
    if timings is not None:
        with open(args.timings, "w", encoding="utf-8") as fh:
            fh.write(to_json(timings))
    sys.stdout.write(to_json(report) if args.format == "json" else format_text(report) + "\n")
    if report_path:
        with open(report_path, "w", encoding="utf-8") as fh:
            fh.write(to_json(report))
    return 1 if report_has_failures(report) else 0


def _phin(args: argparse.Namespace) -> int:
    if args.mode == "ebc" and (args.k < 4 or args.k % 2):
        # The E(B, c) family needs an even weight of at least 4.
        return _usage_error("phin", f"argument --k: {args.k} is not an even integer >= 4, as --mode ebc needs")
    return _emit(payload_phin(args.k, args.sp, args.mode))


def _arthur(args: argparse.Namespace) -> int:
    if not (args.orbits or args.packet is not None or args.lift is not None or args.ledger is not None):
        return _usage_error("arthur", "choose at least one of --orbits/--packet/--lift/--ledger")
    return _emit(payload_arthur(args))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first `run` and kept for the process.

    It outlives every run, so it refers to this module's functions only
    through lambdas and closures that look the name up at call time: the
    benchmark's tracer patches module namespaces, and would miss a function
    held by an argument or a default of the parser."""
    parser = _Parser(prog="g2forge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def command(name, summary, handler, formats=("json",)):
        cmd = sub.add_parser(name, help=summary)
        cmd.add_argument("--format", choices=formats, default=formats[0], help=f"default: {formats[0]}")
        cmd.set_defaults(handler=handler)
        return cmd

    verify = command("verify", "run all verification suites", lambda a: _verify(a), formats=("text", "json"))
    verify.add_argument("--seed", type=int, default=0, help="label of the report (default: 0)")
    verify.add_argument("--bless", action="store_true", help="regenerate golden files")
    verify.add_argument("--timings", default=None, metavar="PATH", help="write each check's wall time in ms as JSON")

    command("roots", "Weyl elements, coset representatives, nilradical sums", lambda a: _emit(payload_roots()))

    kost = command(
        "kostant", "nilpotent-cohomology weight pieces", lambda a: _emit(payload_kostant(a.c1, a.c2, a.parabolic))
    )
    kost.add_argument("--c1", type=_int_in(0), required=True)
    kost.add_argument("--c2", type=_int_in(0), required=True)
    kost.add_argument("--parabolic", choices=("alpha", "beta", "borel"), default="alpha")

    tri = command("triform", "3-form stabilizer verification", lambda a: _emit(payload_triform(a.a, a.word_length)))
    tri.add_argument("--a", type=_rational(nonzero=True), default=Q(1), help="nonzero rational form parameter")
    tri.add_argument(
        "--word-length", type=_int_in(0, MAX_WORD_LENGTH), default=2,
        help=f"longest generator word the relation probe checks (0..{MAX_WORD_LENGTH})",
    )

    wedge = command("wedge2", "wedge-square and elimination reports", lambda a: _emit(payload_wedge2()))
    wedge.add_argument("--report", choices=("json",), default="json")

    ph = command("phin", "filtered module computations", lambda a: _phin(a))
    ph.add_argument("--k", type=_int_in(2), required=True, help="weight (even and >= 4 with --mode ebc)")
    ph.add_argument("--sp", type=_rational(), required=True)
    ph.add_argument("--mode", choices=("polygons", "ebc", "obstruction", "distinct"), default="polygons")

    art = command("arthur", "orbit/packet/lift/ledger data", lambda a: _arthur(a))
    art.add_argument("--orbits", action="store_true")
    art.add_argument("--packet", type=_int_in(4, even=True), default=None, metavar="K")
    art.add_argument("--lift", type=_int_in(1), nargs=2, default=None, metavar=("C1", "C2"))
    art.add_argument("--ledger", action=_Ledger, nargs=2, default=None, metavar=("K", "SP"))
    return parser


def run(argv: Sequence[str]) -> int:
    try:
        args = build_parser().parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    return args.handler(args)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":  # pragma: no cover
    main()
