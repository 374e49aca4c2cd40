"""Command-line interface: exit codes, determinism, where `verify` takes its
settings from, subcommand payloads, golden regeneration, and coverage of the
manifest."""

import importlib
import inspect
import json
import os
import re
import subprocess
import sys
from collections import Counter

import pytest

from g2forge import algebra, checks, cli, kostant, lattice, phin, roots, triform

HERE = os.path.dirname(os.path.abspath(__file__))


def run_capture(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, out


@pytest.fixture(scope="module")
def verify_report():
    """One shared full verification run (seed 7, JSON), from the repository
    root, where the golden check reads its file."""
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, redirect_stdout(buf):
        mp.chdir(os.path.dirname(HERE))
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

    @pytest.mark.parametrize("outdir", ["{tmp}/file", "{tmp}/file/out"])
    def test_unusable_output_dir_is_an_input_error(self, tmp_path, capsys, monkeypatch, outdir):
        # Found before the run: nothing reaches stdout.
        (tmp_path / "file").write_text("")
        monkeypatch.setenv("G2FORGE_OUTPUT_DIR", outdir.replace("{tmp}", str(tmp_path)))
        assert cli.run(["verify"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("g2forge verify: error: cannot write the report to ")
        assert lines[0].endswith("(see g2forge verify --help)")

    def test_bless_where_tests_is_a_file_is_an_input_error(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "tests").write_text("")
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("G2FORGE_OUTPUT_DIR", raising=False)
        assert cli.run(["verify", "--bless"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("g2forge verify: error: cannot write the golden to ")
        assert lines[0].endswith("(see g2forge verify --help)")
        assert (tmp_path / "tests").read_text() == ""

    def test_word_length_zero_is_accepted(self, capsys):
        code, out = run_capture(capsys, ["triform", "--word-length", "0", "--format", "json"])
        assert code == 0
        assert json.loads(out)["relation_probe"]["products_checked"] == 0

    def test_verify_succeeds(self, verify_report):
        code, _ = verify_report
        assert code == 0

    def test_verify_text_format(self, capsys, monkeypatch):
        monkeypatch.chdir(os.path.dirname(HERE))
        code, out = run_capture(capsys, ["verify", "--seed", "7", "--format", "text"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("g2forge ") and lines[-1] == "46 passed, 8 findings, 0 failed"


class TestDeterminism:
    def test_same_seed_byte_identical(self, verify_report, capsys, monkeypatch):
        monkeypatch.chdir(os.path.dirname(HERE))
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

    def test_inspection_output_matches_the_golden(self, capsys):
        # tests/goldens/inspect_display.json is a JSON list of {"argv", "stdout"}:
        # one argv per inspection subcommand shape of the benchmark, with
        # pinned parameters, and the bytes `cli.run(argv)` wrote for it.
        for case in _inspect_golden():
            code, out = run_capture(capsys, case["argv"])
            assert code == 0, case["argv"]
            assert out.encode() == case["stdout"].encode(), case["argv"]

    def test_inspection_output_matches_the_golden_under_optimize_flag(self):
        cases = _inspect_golden()
        proc = _run_python(["-O", "-c", _INSPECT_SCRIPT, json.dumps([case["argv"] for case in cases])])
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [[0, case["stdout"]] for case in cases]

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

    def test_every_name_the_benchmark_looks_up_resolves(self):
        """The benchmark reads its per-function metrics by name from the
        tracer; a renamed or deleted function must fail here rather than
        turn a benchmark run into an error.  Builds the tracer in a fresh
        interpreter, as `perfbench/run.py` does."""
        script = (
            "import sys\n"
            "sys.path.insert(0, 'perfbench')\n"
            "import run\n"
            "tracer = run.Tracer(run.import_package(run.ROOT))\n"
            "for name in [name for name, _kinds in run.FUNCTION_METRICS] + ['triform.LieG2.new']:\n"
            "    tracer.function(name)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], cwd=os.path.dirname(HERE), capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr


def _statuses(report):
    return {f"{s['name']}/{c['id']}": c["status"] for s in report["suites"] for c in s["checks"]}


def _inspect_golden():
    with open(os.path.join(HERE, "goldens", "inspect_display.json"), encoding="utf-8") as fh:
        return json.load(fh)


# Runs each argv of the JSON list in argv[1] through `cli.run` and prints a
# JSON list of [exit code, stdout], in input order.
_INSPECT_SCRIPT = """\
import contextlib, io, json, sys
from g2forge import cli
out = []
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    out.append([code, buf.getvalue()])
print(json.dumps(out))
"""


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
# - the x^2 coefficient of the (3, 5) entry of g(b, x) doubled to -2, which
#   breaks g(x) g(y) = g(x+y);
# - a 3-form pullback that drops the sign of each index sort;
# - the Lie bracket replaced by the anticommutator;
# - the sign of the (3, 4) entry of g(b, x) flipped again, which leaves a
#   residue on e[b] and e[-(b)] (the stabilizer proof), and the sign of the
#   (1, 3) entry of g(a+b, x), so e[a+b] stops commuting with the
#   subregular nilpotent;
# - the short-root Weyl representative replaced by the long-root one;
# - the second Weyl generator replaced by the permutation matrix of the
#   3-cycle (1 2 3), which is monomial but not an involution, and the
#   permutation product made trivial;
# - the first Weyl generator replaced by the permutation matrix of
#   (2 3)(4 6), so the image of a moves off (2 3)(5 6);
# - the power of x in the (2, 6) entry of g(a+b, x) lowered from 2 to 1, so
#   torus conjugation scales that entry by the character, not its square;
# - the blocks of the block Weyl subgroup and of the block parabolic
#   regrouped as (3, 2, 2);
# - the 2x2 minor of the wedge square, of any r x c matrix, replaced by the
#   permanent;
# - the third lift factor weight off by 2;
# - the first Frobenius eigenvalue of E(B, c) moved onto the third, so that a
#   sub/quotient pair coincides;
# - the sign of c2 flipped (the top row of the five-dimensional wedge square);
# - the second vector v7^v1 - v2^v6 of the invariant plane read as
#   v7^v1 - 2 v2^v6 in the four-dimensional wedge basis;
# - the sign of g67 g26 flipped in the second quadratic family;
# - the Frobenius defect with det(A) dropped from its B term;
# - the last two entries of the last row of the natural relation system
#   swapped, as the displayed transcription has them, so its determinant is
#   no longer -9 d^3.
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
    # The top jump of d_st at k, not k - 1: the Hodge polygon moves off the
    # Newton polygon's endpoint, and the sums and tensors carry the shift.
    "phin/rank2-polygons": (("phin", "d_st_jumps", "lambda k: (0, k)"),),
    "phin/sum-tensor-endpoints": (("phin", "d_st_jumps", "lambda k: (0, k)"),),
    # The fourth Frobenius eigenvalue of E(B, c) with p^(2-k) for p^(1-k).
    "phin/extension-admissibility": (
        ("phin", "EBC_FROBENIUS", "phin.EBC_FROBENIUS[:3] + (phin.ValuedScalar.p_power(2 - phin.K) * phin.ALPHA_HAT,)"),
    ),
    # p read as p^2 in the four Frobenius numbers.
    "phin/distinctness-ledger": (("phin", "P", "phin.ValuedScalar.p_power(2)"),),
    # Fil^0 read as span(w11, w22): the test reads the w12-coordinate 2ab.
    "phin/sym2-filtration-test": (("phin", "SYM2_FIL0", "(0, 2)"),),
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
        # The h14 h21 term of r1 with the wrong sign, in the relations' one
        # transcription: a+b, a+2b, b and -b leave the span.
        ("triform", "_RELATION_FORMS", "({**triform._RELATION_FORMS[0], (3, 0): -1},) + triform._RELATION_FORMS[1:]"),
    ),
    "triform/one-parameter-addition": (
        (
            "triform", "_GEN_ENTRIES",
            '{**triform._GEN_ENTRIES, "b": triform._GEN_ENTRIES["b"][:2] + ((3, 5, -2, 2, False),) '
            '+ triform._GEN_ENTRIES["b"][3:]}',
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
    "triform/weyl-cycle-images": (
        (
            "triform", "W_TILDE_A",
            "triform.SymMatrix([[int(j + 1 == p) for j in range(7)] "
            "for p in triform.perm_from_cycles(((2, 3), (4, 6)))])",
        ),
    ),
    "triform/torus-conjugation": (
        (
            "triform", "_GEN_ENTRIES",
            '{**triform._GEN_ENTRIES, "a+b": triform._GEN_ENTRIES["a+b"][:2] + ((2, 6, 1, 1, True),) '
            '+ triform._GEN_ENTRIES["a+b"][3:]}',
        ),
        # The first two standard weights swapped: the torus and the weight
        # arithmetic read them in the model's order.
        ("kostant", "R7_WEIGHTS_MODEL", "kostant.R7_WEIGHTS_MODEL[1::-1] + kostant.R7_WEIGHTS_MODEL[2:]"),
    ),
    # The images of 4 and 7 swapped back: the textbook form lands off the
    # generic support.
    "triform/genericity-witness": (("triform", "_GENERICITY_PERM", "{**triform._GENERICITY_PERM, 4: 4, 7: 7}"),),
    "triform/bruhat-block-intersection": (("triform", "_BLOCKS", "({1, 2, 3}, {4, 5}, {6, 7})"),),
    # The sl2 witness f with coefficient -1 on e[-(a)]: [e, f] is not h.
    "triform/subregular-sl2": (("triform", "SL2_WITNESS", '{**triform.SL2_WITNESS, "e[-(a)]": -1}'),),
    # The (3, 4) entry of g(b, x) with the wrong sign: e[b] stops stabilizing the form.
    "triform/bracket-closure": (
        (
            "triform", "_GEN_ENTRIES",
            '{**triform._GEN_ENTRIES, "b": triform._GEN_ENTRIES["b"][:1] + ((3, 4, 2, 1, False),) '
            '+ triform._GEN_ENTRIES["b"][2:]}',
        ),
    ),
    # The short-root Weyl representative replaced by the long-root one.
    "triform/zeta-witness": (
        ("triform", "W_TILDE_B", "triform.W_TILDE_A"),
        # The first two standard weights swapped: the short coroot at zeta
        # reads them in the model's order.
        ("kostant", "R7_WEIGHTS_MODEL", "kostant.R7_WEIGHTS_MODEL[1::-1] + kostant.R7_WEIGHTS_MODEL[2:]"),
    ),
    # The five-dimensional wedge basis labels rotated by one.
    "wedge2/golden-displayed-blocks": (
        ("lattice", "WEDGE_BASIS_5_LABELS", "lattice.WEDGE_BASIS_5_LABELS[1:] + lattice.WEDGE_BASIS_5_LABELS[:1]"),
    ),
    "wedge2/wedge-functoriality": (
        (
            "lattice", "wedge2_standard",
            "lambda m: lattice.SymMatrix([[m[k - 1, i - 1] * m[l - 1, j - 1] + m[l - 1, i - 1] * m[k - 1, j - 1] "
            "for i, j in lattice._pairs(m.cols)] for k, l in lattice._pairs(m.rows)])",
        ),
    ),
    "wedge2/five-column-block": (
        ("lattice", "c_functions", "lambda c=lattice.c_functions: (c()[0], -c()[1]) + c()[2:]"),
    ),
    "wedge2/four-dim-invariant-plane": (
        (
            "lattice", "WEDGE_BASIS_4",
            "lattice.WEDGE_BASIS_4[:3] + (((-1, (1, 4)), (-2, (2, 3))),) + lattice.WEDGE_BASIS_4[4:]",
        ),
    ),
    "wedge2/four-dim-star-identity": (
        (
            "lattice", "quadratic_families",
            "lambda g16, g17, g26, g27, g66, g67, g76, g77: "
            "(g77 * g17 + g67 * g27, g77 * g16 + g76 * g17 - g67 * g26 + g66 * g27, g76 * g16 + g66 * g26)",
        ),
    ),
    "wedge2/elimination-determinant": (
        (
            "lattice", "natural_relation_rows",
            "lambda rows=lattice.natural_relation_rows: (lambda r: r[:5] + [r[5][:4] + [r[5][5], r[5][4]]])(rows())",
        ),
    ),
    "phin/frobenius-relation-symbolic": (
        (
            "phin", "phi_relation_defect",
            "lambda a, b: phin.SymMatrix([[a[1, 1], -a[0, 1]], [-a[1, 0], a[0, 0]]]) * b * a - b",
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
    # The third eigenvalue of the 5-dim piece with p-exponent (k+2)/2 for k/2.
    "phin/monodromy-five-dim": (
        (
            "phin", "five_dim_eigenvalues",
            "lambda f=phin.five_dim_eigenvalues: (lambda e: e[:2] "
            "+ (phin.ValuedScalar.p_power((phin.K + 2) / 2) * phin.ALPHA_HAT.inv(),) + e[3:])(f())",
        ),
    ),
    # The third eigenvalue of the 7-dim piece equal to the second: only the
    # pair (5, 6) stays unconditional.
    "phin/monodromy-seven-dim": (
        (
            "phin", "seven_dim_eigenvalues",
            "lambda f=phin.seven_dim_eigenvalues: (lambda e: e[:2] "
            "+ (phin.ValuedScalar.p_power(-phin.K / 2 + 1) * phin.ALPHA_HAT,) + e[3:])(f())",
        ),
    ),
    # The infinitesimal character without the halving.
    "arthur/packet-data": (("arthur", "lambda0", "lambda k: arthur.Weight(2 * (k - 4), 3 * (k - 4))"),),
    # The vanishing rules without `classical_at_least_two`.
    "arthur/ledger-bound": (("arthur", "DEFAULT_RULES", "arthur.DEFAULT_RULES[:-1]"),),
    # The (1, 3) entry of g(a+b, x) with the wrong sign: e[a+b] stops commuting
    # with the subregular nilpotent.
    "arthur/subregular-centralizer": (
        ("triform", "_GEN_ENTRIES", '{**triform._GEN_ENTRIES, "a+b": ((1, 3, -1, 1, False),) + triform._GEN_ENTRIES["a+b"][1:]}'),
    ),
    # The subregular orbit stored with a trivial component group.
    "arthur/orbit-dimensions": (
        (
            "arthur", "_ORBIT_DATA",
            'tuple(row[:3] + ("1",) if row[0] == "O_sr" else row for row in arthur._ORBIT_DATA)',
        ),
    ),
    # The parity rule read against the global sign +1 whatever it is.
    "arthur/multiplicity-parity": (
        ("arthur", "multiplicity_sign", "lambda eps_choices, global_eps, f=arthur.multiplicity_sign: f(eps_choices, 1)"),
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


def _clear_lattice_caches():
    for fn in vars(lattice).values():
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()


def _check_in_process(monkeypatch, mutation, check_id):
    """The report entry of `check_id`, run alone with `mutation` applied."""
    module, attr, source = mutation
    mod = importlib.import_module(f"g2forge.{module}")
    monkeypatch.setattr(mod, attr, eval(source, {module: mod}))
    monkeypatch.setattr(checks, "CHECKS", _only_check(check_id))
    # The golden check reads its file relative to the repository root.
    monkeypatch.chdir(os.path.dirname(HERE))
    # The Lie basis and its ambient brackets are cached: the mutated run
    # builds its own, and the cached one comes back after the test.
    monkeypatch.setattr(triform, "_LIE_CACHE", None)
    # The wedge2 reports are cached too: the mutated run computes its own,
    # and what it stored is dropped after it.
    _clear_lattice_caches()
    try:
        (check,) = checks.run_verify(7)["suites"][0]["checks"]
        return check
    finally:
        _clear_lattice_caches()


# Run by `python -O` on a JSON list of [check_id, [module, attr, source]]:
# each mutation in turn is applied, its check alone is run and the mutation is
# reverted, with the caches reset before and after the run as
# `_check_in_process` resets them. Prints the statuses as a JSON list, in
# input order.
_OPTIMIZED_SCRIPT = """\
import importlib, json, sys
from g2forge import checks, lattice, triform
table, statuses = checks.CHECKS, []
def reset_caches():
    triform._LIE_CACHE = None
    for fn in vars(lattice).values():
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()
for check_id, (module, attr, source) in json.loads(sys.argv[1]):
    mod = importlib.import_module("g2forge." + module)
    saved = getattr(mod, attr)
    setattr(mod, attr, eval(source, {module: mod}))
    checks.CHECKS = {k: f for k, f in table.items() if k[0] + "/" + k[1] == check_id}
    reset_caches()
    try:
        report = checks.run_verify(7)
    finally:
        setattr(mod, attr, saved)
        reset_caches()
    statuses.append(report["suites"][0]["checks"][0]["status"])
print(json.dumps(statuses))
"""

# Registers the JSON list of names in argv[1] in reverse sorted order, before
# anything else in the package has registered one, then prints the seed-7
# report as `verify --format json` does.
_REVERSE_INTERNING_SCRIPT = """\
import json, sys
from g2forge import algebra
names = sorted(json.loads(sys.argv[1]), reverse=True)
for name in names:
    algebra.MPoly.var(name)
if algebra._NAMES != names:
    sys.exit("the registry did not start empty")
from g2forge import checks
report = checks.to_json(checks.run_verify(7))
exec(sys.argv[2])
sys.stdout.write(json.dumps({"report": report, "laurent": laurent_texts(names)}))
"""

# Texts of Laurent polynomials with negative exponents, over three names of
# the report and the inverted longest Weyl representative.
_LAURENT_TEXTS = """\
def laurent_texts(names):
    from g2forge.algebra import RFrac
    from g2forge.triform import weyl_rep
    u, v, w = (RFrac.var(n) for n in sorted(names)[:3])
    return [str(weyl_rep("ababab").inverse()), str((u * v**-2 + w.inv() - 3) / (2 * v * w)), str(u.inv() * w**-2)]
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
        # The mutated checks are exactly the `pass` checks of the report.
        statuses = _statuses(json.loads(verify_report[1]))
        assert sorted(_MUTATIONS) == sorted(check_id for check_id, status in statuses.items() if status == "pass")

    @pytest.mark.parametrize("check_id, mutation", _MUTATION_CASES)
    def test_identity_check(self, monkeypatch, check_id, mutation):
        assert _check_in_process(monkeypatch, mutation, check_id)["status"] == "fail"

    @pytest.mark.parametrize("check_id, mutation", _MUTATION_CASES)
    def test_identity_check_under_optimize_flag(self, optimized_statuses, check_id, mutation):
        assert optimized_statuses[check_id, mutation] == "fail"

    @pytest.mark.parametrize("check_id, mutation", _MUTATION_CASES)
    def test_a_failing_check_does_not_print_its_passing_claim(self, monkeypatch, check_id, mutation):
        with open(os.path.join(HERE, "goldens", "verify_seed7.json"), encoding="utf-8") as fh:
            golden = {f"{s['name']}/{c['id']}": c["detail"] for s in json.load(fh)["suites"] for c in s["checks"]}
        check = _check_in_process(monkeypatch, mutation, check_id)
        assert check["status"] == "fail" and check["detail"] != golden[check_id]

    def test_the_permanent_square_fails_the_identity_itself(self, monkeypatch):
        # The mutant must break the identity the check proves, not make it raise.
        (mutation,) = _MUTATIONS["wedge2/wedge-functoriality"]
        check = _check_in_process(monkeypatch, mutation, "wedge2/wedge-functoriality")
        assert (check["status"], check["detail"]) == (
            "fail", "wedge square not multiplicative on the generic torus, the 5-cycle and E12(t)"
        )

    def test_a_wrong_sl2_witness_fails_the_relations_themselves(self, monkeypatch):
        # The mutant must break [e, f] = h, not make the check raise.
        (mutation,) = _MUTATIONS["triform/subregular-sl2"]
        check = _check_in_process(monkeypatch, mutation, "triform/subregular-sl2")
        assert (check["status"], check["detail"]) == ("fail", "does not hold: triple completed; joint centralizer dim 0")

    @pytest.mark.parametrize("check_id, n, reason", (
        ("triform/bracket-closure", 0, "(failures: ['e[b]', 'e[-(b)]'])"),
        ("triform/zeta-witness", 0, "'weyl_rep_centralizes': False"),
        ("triform/zeta-witness", 1, "'short_coroot_at_zeta_centralizes': False, 'weyl_rep_centralizes': True"),
        ("arthur/subregular-centralizer", 0, "span dim 4; brackets vanish False; matches centralizer dim False;"),
    ))
    def test_a_broken_lie_algebra_fails_the_check_itself(self, monkeypatch, check_id, n, reason):
        # The mutant must break what the check reads, not make it raise.
        check = _check_in_process(monkeypatch, _MUTATIONS[check_id][n], check_id)
        assert check["status"] == "fail" and reason in check["detail"]
        assert not re.match(r"\w+: ", check["detail"])

    def test_shape_families_off_their_closed_form_fail(self, monkeypatch, optimized_statuses):
        # A finding check, so it is not in _MUTATIONS; it still has a failure mode.
        check_id, mutation = _SHAPE_CASE
        assert _check_in_process(monkeypatch, mutation, check_id)["status"] == "fail"
        assert optimized_statuses[_SHAPE_CASE] == "fail"

    def test_verify_walks_no_generator_words(self, monkeypatch):
        # Both parabolic checks are one-step proofs; none enumerates words.
        def refuse(*args):
            raise AssertionError("verify walked generator words")

        monkeypatch.setattr(triform, "walk_parabolic_words", refuse)
        monkeypatch.chdir(os.path.dirname(HERE))
        assert Counter(_statuses(checks.run_verify(7)).values()) == {"pass": 46, "finding": 8}

    def test_checks_read_the_generators_and_build_each_extension_once(self, monkeypatch):
        # Weyl images compose the generators' permutations and the torus identity
        # is one character ratio per generator entry: neither multiplies a matrix.
        # The injectivity check builds each of its four E(B, c) modules once.
        # Wedge functoriality squares 5-row matrices only for I5 and its three
        # generators; its generic matrix has 2 rows.
        calls = Counter()

        def counted(name, fn, counts=lambda *args: True):
            def wrapper(*args):
                calls[name] += counts(*args)
                return fn(*args)

            return wrapper

        monkeypatch.setattr(algebra.SymMatrix, "__mul__", counted("products", algebra.SymMatrix.__mul__))
        monkeypatch.setattr(phin, "build_EBc", counted("builds", phin.build_EBc))
        monkeypatch.setattr(
            lattice, "wedge2_standard", counted("five-row wedges", lattice.wedge2_standard, lambda m: m.rows == 5)
        )
        expected = {
            "triform/weyl-cycle-images": ("products", 0),
            "triform/ninth-cycle-divergence": ("products", 0),
            "triform/torus-conjugation": ("products", 0),
            "phin/extension-injectivity-random": ("builds", 4),
            "wedge2/wedge-functoriality": ("five-row wedges", 4),
        }
        tables = {check_id: _only_check(check_id) for check_id in expected}
        for check_id, (name, count) in expected.items():
            monkeypatch.setattr(checks, "CHECKS", tables[check_id])
            calls.clear()
            assert _statuses(checks.run_verify(7))[check_id] != "fail"
            assert (check_id, calls[name]) == (check_id, count)

    def test_a_non_integral_dimension_names_the_weight(self, monkeypatch):
        # Without the highest root the formula gives 42/5 for the adjoint weight.
        monkeypatch.setattr(kostant, "POSITIVE_ROOTS", kostant.POSITIVE_ROOTS[:-1])
        monkeypatch.setattr(checks, "CHECKS", _only_check("kostant/weyl-dimension-samples"))
        (check,) = checks.run_verify(7)["suites"][0]["checks"]
        assert check["status"] == "fail"
        assert "non-integral quotient 42/5" in check["detail"]
        assert str(roots.Weight(2, 3)) in check["detail"]

    def test_verify_under_optimize_flag(self):
        # Under -O every check reports what it reports without: the whole report is the golden.
        proc = _run_python(["-O", "-m", "g2forge.cli", "verify", "--seed", "7", "--format", "json"])
        assert proc.returncode == 0, proc.stderr
        with open(os.path.join(HERE, "goldens", "verify_seed7.json"), encoding="utf-8") as fh:
            assert proc.stdout == fh.read()

    def test_report_does_not_depend_on_the_variable_registry_order(self):
        # Monomials are packed over a registry that numbers variable names as
        # they are first seen. With every name of the report registered
        # first, in reverse sorted order, the report is still the golden,
        # and Laurent polynomials with negative exponents, whose signed keys
        # are read through the same registry, print as they do here.
        checks.run_verify(7)
        names = list(algebra._NAMES)
        assert names != sorted(names, reverse=True)
        proc = _run_python(["-c", _REVERSE_INTERNING_SCRIPT, json.dumps(names), _LAURENT_TEXTS])
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        with open(os.path.join(HERE, "goldens", "verify_seed7.json"), encoding="utf-8") as fh:
            assert out["report"] == fh.read()
        scope = {}
        exec(_LAURENT_TEXTS, scope)
        expected = scope["laurent_texts"](names)
        assert all("/" in text for text in expected)
        assert out["laurent"] == expected


class TestOneTermDenominators:
    def test_verify_and_inspection_build_no_denominator_of_more_terms(self, monkeypatch, capsys):
        # Every RFrac the program builds has a one-term denominator: in a cold
        # seed-7 verify (the wedge2 reports and the Lie basis rebuilt) and in
        # every golden inspection argv, `algebra._one_term`, through which
        # every divisor passes and which alone raises on one of more terms,
        # never sees one.  It is live in both phases.
        one_term, calls, seen = algebra._one_term, Counter(), []
        phase = ["setup"]

        def recording(f):
            calls[phase[0]] += 1
            if len(f.terms) > 1:
                seen.append(str(f))
            return one_term(f)

        monkeypatch.setattr(algebra, "_one_term", recording)
        x = algebra.MPoly.var("x")
        for quotient in (lambda: algebra.RFrac(x * x - 1, x - 1), lambda: algebra.RFrac(x) / algebra.RFrac(x - 1)):
            with pytest.raises(ArithmeticError):
                quotient()
        assert seen == ["x - 1", "x - 1"]
        seen.clear()
        monkeypatch.chdir(os.path.dirname(HERE))
        monkeypatch.setattr(triform, "_LIE_CACHE", None)
        _clear_lattice_caches()
        with open(os.path.join(HERE, "goldens", "verify_seed7.json"), encoding="utf-8") as fh:
            golden = fh.read()
        try:
            phase[0] = "verify"
            assert checks.to_json(checks.run_verify(7)) == golden
            phase[0] = "inspect"
            for case in _inspect_golden():
                assert run_capture(capsys, case["argv"]) == (0, case["stdout"]), case["argv"]
        finally:
            _clear_lattice_caches()
        assert calls["verify"] and calls["inspect"] and seen == []


class TestCanonicalRows:
    def test_verify_and_inspection_store_no_zero_entry(self, monkeypatch, capsys):
        # Every SymMatrix stores one dict of nonzero entries per row, keyed by
        # columns in range(cols); `==` and `is_zero` read the dicts, so a
        # stored zero would make equal matrices differ.  Both the constructor
        # and the unchecked builder of operation results set the slot through
        # `algebra._set_nonzero`, which records each matrix built in a cold
        # seed-7 verify (the wedge2 reports and the Lie basis rebuilt) and in
        # every golden inspection argv.  The rows are read after each phase,
        # so an elimination that wrote into a stored row dict shows too.
        set_nonzero, built = algebra._set_nonzero, {"verify": [], "inspect": []}
        phase = ["setup"]

        def recording(m, rows):
            set_nonzero(m, rows)
            built.setdefault(phase[0], []).append(m)

        def stray(m):
            """The stored entries of `m` that are zero or out of range."""
            return [
                (i, j, str(x)) for i, row in enumerate(m.nonzero) for j, x in row.items()
                if type(x) is not algebra.RFrac or not x.terms or type(j) is not int or not 0 <= j < m.cols
            ]

        monkeypatch.setattr(algebra, "_set_nonzero", recording)
        m = algebra.SymMatrix([[1, 0], [0, algebra.MPoly.zero()]])
        assert built["setup"] == [m] and m.nonzero == ({0: algebra.R_ONE}, {})
        tampered = algebra.SymMatrix([[1, 2]])
        tampered.nonzero[0][1] = algebra.R_ZERO
        tampered.nonzero[0][2] = algebra.R_ONE
        assert stray(tampered) == [(0, 1, "0"), (0, 2, "1")]
        monkeypatch.chdir(os.path.dirname(HERE))
        monkeypatch.setattr(triform, "_LIE_CACHE", None)
        _clear_lattice_caches()
        with open(os.path.join(HERE, "goldens", "verify_seed7.json"), encoding="utf-8") as fh:
            golden = fh.read()
        try:
            phase[0] = "verify"
            assert checks.to_json(checks.run_verify(7)) == golden
            phase[0] = "inspect"
            for case in _inspect_golden():
                assert run_capture(capsys, case["argv"]) == (0, case["stdout"]), case["argv"]
        finally:
            _clear_lattice_caches()
        for name in ("verify", "inspect"):
            assert built[name], name
            assert all(len(m.nonzero) == m.rows for m in built[name])
            assert [stray(m) for m in built[name] if stray(m)] == [], name
