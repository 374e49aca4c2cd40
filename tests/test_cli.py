"""Command-line interface: exit codes, determinism, where `verify` takes its
settings from, subcommand payloads, golden regeneration, and coverage of the
manifest."""

import importlib
import inspect
import json
import os
import subprocess
import sys
from collections import Counter

import pytest

from g2forge import checks, cli, lattice, triform

HERE = os.path.dirname(os.path.abspath(__file__))


def run_capture(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, out


@pytest.fixture(scope="module")
def verify_report():
    """One shared full verification run (seed 7, JSON)."""
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.run(["verify", "--seed", "7", "--format", "json"])
    return code, buf.getvalue()


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        assert cli.run(["verify", "--bogus"]) == 2
        capsys.readouterr()
        # --seed belongs to verify alone.
        assert cli.run(["roots", "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and "unrecognized arguments: --seed 1" in lines[0]

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert cli.run(["frobnicate"]) == 2

    def test_arthur_requires_a_selection(self, capsys):
        assert cli.run(["arthur"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["phin", "--k", "4", "--sp", "1/0"],
            ["phin", "--k", "4", "--sp", "half"],
            ["arthur", "--packet", "3"],
            ["arthur", "--packet", "2"],
            ["triform", "--word-length", "-1"],
            ["triform", "--word-length", str(cli.MAX_WORD_LENGTH + 1)],
            ["triform", "--a", "2/0"],
            ["triform", "--a", "0"],
            ["arthur", "--ledger", "12", "1/0"],
            ["arthur", "--ledger", "8", "1"],
            ["arthur", "--ledger", "twelve", "1"],
            ["arthur", "--lift", "0", "1"],
            ["phin", "--k", "1", "--sp", "1"],
            ["phin", "--k", "5", "--sp", "1", "--mode", "ebc"],
            ["roots", "--format", "text"],
            ["arthur", "--orbits", "--format", "text"],
            ["verify", "--format", "xml"],
            ["kostant", "--c1", "-1", "--c2", "0"],
            ["arthur", "--ledger", "5", "-1"],
            ["arthur", "--ledger", "1", "-1"],
        ],
    )
    def test_bad_input_is_a_one_line_usage_error(self, capsys, argv):
        assert cli.run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and "error: argument --" in lines[0]

    def test_negative_fraction_after_a_space_is_a_value(self, capsys):
        # argparse takes only integers and decimals for negative numbers
        # unless the parser widens its pattern.
        assert run_capture(capsys, ["phin", "--k", "4", "--sp", "-1/2"]) == run_capture(
            capsys, ["phin", "--k", "4", "--sp=-1/2"]
        )
        assert cli.run(["arthur", "--ledger", "5", "-1/2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and "SP >= 0" in lines[0]

    def test_timings_name_every_check(self, tmp_path, capsys):
        path = tmp_path / "timings.json"
        code, _ = run_capture(capsys, ["verify", "--seed", "7", "--format", "json", "--timings", str(path)])
        assert code == 0
        text = path.read_text()
        timings = json.loads(text)
        with open(os.path.join(HERE, "coverage_manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)["checks"]
        assert sorted(timings) == sorted(manifest) and len(timings) == 54
        assert list(timings) == sorted(timings)
        assert all(isinstance(ms, float) and ms >= 0 for ms in timings.values())

    def test_unwritable_timings_path_is_an_input_error(self, tmp_path, capsys):
        code = cli.run(["verify", "--timings", str(tmp_path / "missing" / "timings.json")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and "cannot write timings" in lines[0]

    def test_word_length_zero_is_accepted(self, capsys):
        code, out = run_capture(capsys, ["triform", "--word-length", "0", "--format", "json"])
        assert code == 0
        assert json.loads(out)["relation_probe"]["products_checked"] == 0

    def test_verify_succeeds(self, verify_report):
        code, _ = verify_report
        assert code == 0

    def test_verify_text_format(self, capsys):
        code, out = run_capture(capsys, ["verify", "--seed", "7", "--format", "text"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("g2forge ") and lines[-1] == "46 passed, 8 findings, 0 failed"


class TestDeterminism:
    def test_same_seed_byte_identical(self, verify_report, capsys):
        _, first = verify_report
        code, second = run_capture(capsys, ["verify", "--seed", "7", "--format", "json"])
        assert code == 0
        assert first == second

    def test_report_bytes_match_the_golden(self, capsys, monkeypatch):
        # Regenerate, from the repository root, with
        # PYTHONPATH=src python -m g2forge.cli verify --seed 7 --format json > tests/goldens/verify_seed7.json
        monkeypatch.chdir(os.path.dirname(HERE))
        monkeypatch.delenv("G2FORGE_OUTPUT_DIR", raising=False)
        code, out = run_capture(capsys, ["verify", "--seed", "7", "--format", "json"])
        assert code == 0
        with open(os.path.join(HERE, "goldens", "verify_seed7.json"), "rb") as fh:
            assert out.encode() == fh.read()

    def test_report_schema(self, verify_report):
        _, out = verify_report
        rep = json.loads(out)
        assert set(rep) == {"version", "seed", "suites"}
        assert rep["seed"] == 7
        for suite in rep["suites"]:
            assert set(suite) == {"name", "checks"}
            for check in suite["checks"]:
                assert set(check) == {"id", "anchor", "status", "detail"}
                assert check["status"] in {"pass", "fail", "finding"}

    def test_no_failures_and_findings_present(self, verify_report):
        _, out = verify_report
        rep = json.loads(out)
        statuses = [c["status"] for s in rep["suites"] for c in s["checks"]]
        assert "fail" not in statuses
        assert "finding" in statuses  # documented probes stay visible


class TestCoverageManifest:
    def test_every_check_appears_exactly_once(self, verify_report):
        _, out = verify_report
        rep = json.loads(out)
        seen = [f"{s['name']}/{c['id']}" for s in rep["suites"] for c in s["checks"]]
        with open(os.path.join(HERE, "coverage_manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)["checks"]
        assert len(seen) == len(set(seen))
        # The manifest fixes the report order, which the registry owns.
        assert seen == manifest
        assert [f"{s}/{i}" for s, i, _ in checks.CHECKS] == manifest


class TestConfiguration:
    """`verify` takes each setting from one place: the seed from `--seed`
    (default 0), the output directory from `G2FORGE_OUTPUT_DIR`, the golden
    from the working directory. It reads no configuration file, and no check
    takes an argument."""

    def test_config_file_in_working_directory_is_ignored(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "g2forge.cfg").write_text("bogus = 1\nseed = 11\n")
        monkeypatch.chdir(tmp_path)
        code, out = run_capture(capsys, ["verify", "--format", "json"])
        assert code == 0
        assert json.loads(out)["seed"] == 0

    def test_config_option_is_unrecognized(self, capsys):
        assert cli.run(["verify", "--config", "x"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("g2forge: error: unrecognized arguments: --config")
        assert lines[0].endswith("(see g2forge --help)")

    def test_checks_take_no_arguments(self):
        assert [key for key, fn in checks.CHECKS.items() if inspect.signature(fn).parameters] == []

    def test_env_var_sets_output_dir(self, tmp_path, capsys, monkeypatch):
        # --bless writes the golden under the working directory, never into
        # the output directory and never over the tracked golden.
        outdir = tmp_path / "out"
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("G2FORGE_OUTPUT_DIR", str(outdir))
        code, out = run_capture(capsys, ["verify", "--seed", "2", "--format", "json", "--bless"])
        assert code == 0
        assert (outdir / "verify_report.json").exists()
        assert (tmp_path / cli.GOLDEN_PATH).exists()
        assert not (outdir / "wedge2_display.json").exists()
        # the freshly blessed golden matches in the same run
        assert _golden_status(out) == "pass"

    def test_missing_golden_is_a_finding_not_a_failure(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out = run_capture(capsys, ["verify", "--seed", "2", "--format", "json"])
        assert code == 0
        assert _golden_status(out) == "finding"

    def test_golden_does_not_follow_the_output_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(os.path.dirname(HERE))
        monkeypatch.setenv("G2FORGE_OUTPUT_DIR", str(tmp_path))
        code, out = run_capture(capsys, ["verify", "--seed", "2", "--format", "json"])
        assert code == 0
        assert _golden_status(out) == "pass"
        assert (tmp_path / "verify_report.json").read_text() == out


def _golden_status(out):
    return _statuses(json.loads(out))["wedge2/golden-displayed-blocks"]


class TestParser:
    """One parser serves every run of a process; it is built on the first."""

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_not_built_at_import(self):
        proc = _run_python(["-c", "from g2forge import cli; print(cli.build_parser.cache_info().currsize)"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0\n"

    def test_runs_do_not_leak_options(self, tmp_path, capsys):
        assert run_capture(capsys, ["arthur", "--ledger", "12", "1"])[0] == 0
        code, out = run_capture(capsys, ["arthur", "--orbits"])
        assert code == 0 and "ledger" not in json.loads(out)
        path = tmp_path / "timings.json"
        assert run_capture(capsys, ["verify", "--seed", "7", "--format", "json", "--timings", str(path)])[0] == 0
        path.unlink()
        assert run_capture(capsys, ["verify", "--seed", "7", "--format", "json"])[0] == 0
        assert not path.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["triform", "--a", "0"],
            ["phin", "--k", "2", "--sp", "0", "--mode", "ebc"],
            ["phin", "--k", "5", "--sp", "1", "--mode", "ebc"],
            ["arthur"],
            ["verify", "--seed", "abc"],
            ["verify", "--seed"],
            ["verify", "--format", "xml"],
            ["verify", "--timings", "{tmp}"],
            ["verify", "--timings", "{tmp}/missing/timings.json"],
        ],
    )
    def test_input_errors_share_one_format(self, tmp_path, capsys, argv):
        argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
        assert cli.run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"g2forge {argv[0]}: error: ")
        assert lines[0].endswith(f"(see g2forge {argv[0]} --help)")


class TestSubcommands:
    def test_roots_payload(self, capsys):
        code, out = run_capture(capsys, ["roots"])
        assert code == 0
        rep = json.loads(out)
        assert len(rep["weyl_elements"]) == 12
        assert rep["two_rho"]["P_long"] == "(5)*alpha + (10)*beta"

    def test_kostant_payload(self, capsys):
        code, out = run_capture(capsys, ["kostant", "--c1", "1", "--c2", "1", "--parabolic", "alpha"])
        assert code == 0
        rep = json.loads(out)
        assert len(rep["pieces"]) == 6
        assert [c["degree"] for c in rep["degree_cases"]] == [4, 5, 6]

    def test_triform_payload(self, capsys):
        code, out = run_capture(capsys, ["triform", "--a", "2/3", "--word-length", "1"])
        assert code == 0
        rep = json.loads(out)
        assert all(rep["form_preserved_by"].values())
        assert rep["centralizer_dims"] == [14, 8, 6, 4, 2]

    def test_triform_zero_parameter_rejected(self, capsys):
        assert cli.run(["triform", "--a", "0"]) == 2

    def test_wedge2_payload(self, capsys):
        code, out = run_capture(capsys, ["wedge2", "--report", "json"])
        assert code == 0
        rep = json.loads(out)
        assert rep["elimination"]["det_natural_is_minus_9d3"] is True
        assert rep["five_dim"]["wedge_block_equals_sym_cube"] is True

    def test_phin_obstruction_payload(self, capsys):
        code, out = run_capture(capsys, ["phin", "--k", "4", "--sp", "1", "--mode", "obstruction"])
        assert code == 0
        rep = json.loads(out)
        constraints = {c["constraint"] for c in rep["constraints"]}
        assert constraints == {
            "unit = p^(1/2*k - 1)",
            "unit = p^(1/2*k)",
            "unit^3 = p^(3/2*k - 1)",
            "unit^3 = p^(3/2*k - 2)",
        }
        assert rep["monodromy_forced_zero"] is False

    def test_phin_polygons_payload(self, capsys):
        code, out = run_capture(capsys, ["phin", "--k", "4", "--sp", "1", "--mode", "polygons"])
        assert code == 0
        rep = json.loads(out)
        assert rep["admissible"] is True
        assert rep["newton"]["vertices"] == [[0, "0"], [1, "-2"], [2, "-3"]]

    def test_arthur_payload(self, capsys):
        code, out = run_capture(
            capsys, ["arthur", "--orbits", "--packet", "4", "--lift", "1", "1", "--ledger", "12", "1"]
        )
        assert code == 0
        rep = json.loads(out)
        assert [o["dim"] for o in rep["orbits"]] == [0, 6, 8, 10, 12]
        assert rep["lift"]["coweight"] == [10, 6]
        assert rep["ledger"]["bound"] == ["m_cusp(plain)", 2]


class TestBenchmarkTracer:
    def test_tracer_patches_every_alias(self):
        """The benchmark's tracer reaches a function only through module
        namespaces, class dicts and module-level dicts; any other reference
        (a list or tuple of functions, a closure cell) would bypass it.

        Runs in a fresh interpreter, as the benchmark does: in this process
        a test module that imports a g2forge function by name also holds a
        reference the tracer does not patch."""
        root = os.path.dirname(HERE)
        script = (
            "import contextlib, io, sys\n"
            "sys.path.insert(0, 'perfbench')\n"
            "import run, selfcheck\n"
            "mods = run.import_package(run.ROOT)\n"
            "# A run builds the cached parser, whose references the check must see too.\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    for argv in (['roots'], ['phin', '--k', '4', '--sp', '1'],\n"
            "                 ['triform', '--a', '2', '--word-length', '0'], ['arthur', '--ledger', '12', '1']):\n"
            "        assert mods['cli'].run(argv) == 0, argv\n"
            "selfcheck.check_aliases(mods)\n"
            "sys.exit(1 if selfcheck.failures else 0)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], cwd=root, capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr


def _statuses(report):
    return {f"{s['name']}/{c['id']}": c["status"] for s in report["suites"] for c in s["checks"]}


def _run_python(args):
    """Run `python <args>` from the repository root with `src` on the path."""
    root = os.path.dirname(HERE)
    env = dict(os.environ)
    env.pop("G2FORGE_OUTPUT_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, *args], cwd=root, env=env, capture_output=True, text=True, timeout=300,
    )


# Mutations of the program's data or maths, each of which breaks what a `pass`
# check proves, as "suite/id" -> ((module, attribute, replacement source), ...):
# - the beta coordinate of the slope weight negated, which flips the sign of
#   that residue term, and the top jump of d_st moved from k - 1 to k (window
#   certificates);
# - the sign of the (3, 4) entry of g(b, x) and of the (2, 4) entry of
#   g(a+b, x) flipped in the generator table;
# - a 3-form pullback that drops the sign of each index sort;
# - the Lie bracket replaced by the anticommutator;
# - the second Weyl generator replaced by the permutation matrix of the
#   3-cycle (1 2 3), which is monomial but not an involution, and the
#   permutation product made trivial;
# - the 2x2 minor of the wedge square replaced by the permanent;
# - the third lift factor weight off by 2;
# - the first Frobenius eigenvalue of E(B, c) moved onto the third, so that a
#   sub/quotient pair coincides.
_MUTATIONS = {
    # The Weyl group without its longest element.
    "roots/weyl-group-order": (("roots", "WEYL_GROUP", "roots.WEYL_GROUP[:-1]"),),
    # The highest root 2a+3b left out of the positive roots.
    "roots/length-inversions": (("roots", "POSITIVE_ROOTS", "roots.POSITIVE_ROOTS[:-1]"),),
    # An Eisenstein word of P_long that starts with the Levi reflection.
    "roots/coset-representatives": (
        (
            "roots", "PARABOLICS",
            '{**roots.PARABOLICS, "P_long": roots.ParabolicId("P_long", (roots.ALPHA,), ("", "a", "ab"))}',
        ),
    ),
    # The highest root read as 2a+4b.
    "roots/nilradical-root-sums": (
        ("roots", "POSITIVE_ROOTS", "roots.POSITIVE_ROOTS[:-1] + (roots.Weight(2, 4),)"),
    ),
    # rho with one coordinate off: 3a+4b for 3a+5b.
    "roots/dot-action-beta-drop": (("roots", "RHO", "roots.Weight(3, 4)"),),
    # The short-root parabolic with the long simple root in its Levi.
    "roots/dot-action-short-levi-shift": (
        ("roots", "P_SHORT", 'roots.ParabolicId("P_short", (roots.ALPHA,), roots.P_SHORT.eis_words)'),
    ),
    "roots/criticality-window": (
        ("roots", "slope_weight", "lambda sp: roots.Weight(2 * sp, -(3 * sp + 1))"),
    ),
    # The Borel parabolic with the short simple root in its Levi.
    "kostant/borel-piece-degrees": (
        ("roots", "BOREL", 'roots.ParabolicId("B", (roots.BETA,), roots.BOREL.eis_words)'),
    ),
    # The long simple root left out of the product of the dimension formula,
    # which makes the adjoint 7-dimensional. Leaving out the highest root
    # instead only makes weyl_dim raise on a non-integral quotient.
    "kostant/weyl-dimension-samples": (("kostant", "POSITIVE_ROOTS", "kostant.POSITIVE_ROOTS[1:]"),),
    # The degree-6 case read off the word ababa in place of babab.
    "kostant/degree-case-triples": (("kostant", "_CASE_WORDS", '("bab", "baba", "ababa")'),),
    # The last lift weight -2c1 in place of -2c1 - c2.
    "kostant/lift-weight-examples": (
        (
            "kostant", "lift_weights",
            "lambda c1, c2: (2 * c1 + c2, c1 + c2, c1 + 0 * c2, 0 * c1, -c1 + 0 * c2, -c1 - c2, -2 * c1)",
        ),
    ),
    # The standard weights paired in ascending order, not in the model's.
    "kostant/lift-pairing-random": (("kostant", "R7_WEIGHTS_MODEL", "kostant.R7_WEIGHTS_ASC"),),
    "phin/rank2-admissibility-grid": (("phin", "d_st_jumps", "lambda k: (0, k)"),),
    "triform/coefficient-relations": (
        (
            "triform", "_GEN_ENTRIES",
            '{**triform._GEN_ENTRIES, "b": triform._GEN_ENTRIES["b"][:1] + ((3, 4, 2, 1, False),) '
            '+ triform._GEN_ENTRIES["b"][2:]}',
        ),
        (
            "triform", "_GEN_ENTRIES",
            '{**triform._GEN_ENTRIES, "a+b": triform._GEN_ENTRIES["a+b"][:1] + ((2, 4, -2, 1, False),) '
            '+ triform._GEN_ENTRIES["a+b"][2:]}',
        ),
    ),
    "triform/one-parameter-stabilizers": (
        ("triform", "_sort_triple", "lambda i, j, k: (tuple(sorted((i, j, k))), int(len({i, j, k}) == 3))"),
    ),
    "triform/centralizer-dimensions": (("triform", "bracket", "lambda x, y: x * y + y * x"),),
    "triform/s7-homomorphism": (
        (
            "triform", "W_TILDE_B",
            "triform.SymMatrix([[int(j + 1 == p) for j in range(7)] "
            "for p in triform.perm_from_cycles(((1, 2, 3),))])",
        ),
        ("triform", "compose_perms", "lambda p, q: tuple(range(1, 8))"),
    ),
    "wedge2/wedge-functoriality": (
        (
            "lattice", "wedge2_standard",
            "lambda m: lattice.SymMatrix([[m[k - 1, i - 1] * m[l - 1, j - 1] + m[l - 1, i - 1] * m[k - 1, j - 1] "
            "for i, j in lattice._pairs(m.rows)] for k, l in lattice._pairs(m.rows)])",
        ),
    ),
    "arthur/lift-consistency-random": (
        (
            "arthur", "lift_inf_char",
            "lambda c1, c2: ((3 * c1 + 2 * c2 + 5, 2 * c1 + c2 + 3), "
            "(4 * c1 + 2 * c2 + 7, 2 * c1 + 2 * c2 + 5, 2 * c1 + 5))",
        ),
    ),
    "phin/extension-injectivity-random": (
        ("phin", "EBC_FROBENIUS", "(phin.ALPHA_HAT.inv(),) + phin.EBC_FROBENIUS[1:]"),
    ),
}

# The sign of the (2, 7) entry of g(2a+3b, x) flipped: the shape families on
# the generic parabolic element leave their closed form.
_SHAPE_MUTATION = (
    "triform", "_GEN_ENTRIES", '{**triform._GEN_ENTRIES, "2a+3b": ((1, 6, 1, 1, False), (2, 7, 1, 1, False))}',
)

# One case per mutation; a check's first mutation is named by the check id
# alone, a further one also by the attribute it replaces.
_MUTATION_CASES = [
    pytest.param(check_id, mutation, id=check_id if n == 0 else f"{check_id}:{mutation[1]}")
    for check_id, mutations in _MUTATIONS.items()
    for n, mutation in enumerate(mutations)
]


def _only_check(check_id):
    """The `checks.CHECKS` table cut down to the check `suite/id`."""
    return {key: fn for key, fn in checks.CHECKS.items() if f"{key[0]}/{key[1]}" == check_id}


def _status_in_process(monkeypatch, mutation, check_id):
    module, attr, source = mutation
    mod = importlib.import_module(f"g2forge.{module}")
    monkeypatch.setattr(mod, attr, eval(source, {module: mod}))
    monkeypatch.setattr(checks, "CHECKS", _only_check(check_id))
    # The Lie basis and its structure constants are cached: the mutated run
    # builds its own, and the cached one comes back after the test.
    monkeypatch.setattr(triform, "_LIE_CACHE", None)
    try:
        return _statuses(checks.run_verify(7))[check_id]
    finally:
        # The wedge2 reports are cached: drop what the mutated run stored.
        for fn in vars(lattice).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()


# Run by `python -O` on a JSON list of [check_id, [module, attr, source]]:
# each mutation in turn is applied, its check alone is run and the mutation is
# reverted, with the caches reset as `_status_in_process` resets them. Prints
# the statuses as a JSON list, in input order.
_OPTIMIZED_SCRIPT = """\
import importlib, json, sys
from g2forge import checks, lattice, triform
table, statuses = checks.CHECKS, []
for check_id, (module, attr, source) in json.loads(sys.argv[1]):
    mod = importlib.import_module("g2forge." + module)
    saved = getattr(mod, attr)
    setattr(mod, attr, eval(source, {module: mod}))
    checks.CHECKS = {k: f for k, f in table.items() if k[0] + "/" + k[1] == check_id}
    triform._LIE_CACHE = None
    try:
        report = checks.run_verify(7)
    finally:
        setattr(mod, attr, saved)
        triform._LIE_CACHE = None
        for fn in vars(lattice).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()
    statuses.append(report["suites"][0]["checks"][0]["status"])
print(json.dumps(statuses))
"""

_SHAPE_CASE = ("wedge2/shape-constraint-probe", _SHAPE_MUTATION)


@pytest.fixture(scope="module")
def optimized_statuses():
    """The status of each mutated check under `python -O`, keyed by
    (check_id, mutation), from one interpreter that runs every mutation."""
    cases = [tuple(case.values) for case in _MUTATION_CASES] + [_SHAPE_CASE]
    proc = _run_python(["-O", "-c", _OPTIMIZED_SCRIPT, json.dumps(cases)])
    assert proc.returncode == 0, proc.stderr
    return dict(zip(cases, json.loads(proc.stdout)))


class TestChecksCanFail:
    """Breaking what a check tests turns it to `fail`, and the checks keep
    their force under `python -O`. Each mutation runs only the check it
    targets, through `run_verify`, so a check that raises reports `fail`."""

    def test_every_mutated_check_passes_unmutated(self, verify_report):
        statuses = _statuses(json.loads(verify_report[1]))
        assert {check_id: statuses.get(check_id) for check_id in _MUTATIONS} == dict.fromkeys(_MUTATIONS, "pass")

    @pytest.mark.parametrize("check_id, mutation", _MUTATION_CASES)
    def test_identity_check(self, monkeypatch, check_id, mutation):
        assert _status_in_process(monkeypatch, mutation, check_id) == "fail"

    @pytest.mark.parametrize("check_id, mutation", _MUTATION_CASES)
    def test_identity_check_under_optimize_flag(self, optimized_statuses, check_id, mutation):
        assert optimized_statuses[check_id, mutation] == "fail"

    def test_shape_families_off_their_closed_form_fail(self, monkeypatch, optimized_statuses):
        # A finding check, so it is not in _MUTATIONS; it still has a failure mode.
        check_id, mutation = _SHAPE_CASE
        assert _status_in_process(monkeypatch, mutation, check_id) == "fail"
        assert optimized_statuses[_SHAPE_CASE] == "fail"

    def test_verify_walks_no_generator_words(self, monkeypatch):
        # Both parabolic checks are one-step proofs; none enumerates words.
        def refuse(*args):
            raise AssertionError("verify walked generator words")

        monkeypatch.setattr(triform, "walk_parabolic_words", refuse)
        assert Counter(_statuses(checks.run_verify(7)).values()) == {"pass": 46, "finding": 8}

    def test_verify_under_optimize_flag(self):
        # Under -O every check reports what it reports without: the whole report is the golden.
        proc = _run_python(["-O", "-m", "g2forge.cli", "verify", "--seed", "7", "--format", "json"])
        assert proc.returncode == 0, proc.stderr
        with open(os.path.join(HERE, "goldens", "verify_seed7.json"), encoding="utf-8") as fh:
            assert proc.stdout == fh.read()
