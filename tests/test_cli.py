"""Command-line interface: exit codes, determinism, configuration,
subcommand payloads, golden regeneration, and coverage of the manifest."""

import json
import os
import subprocess
import sys
from collections import Counter

import pytest

from g2forge import cli

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
        ],
    )
    def test_bad_input_is_a_one_line_usage_error(self, capsys, argv):
        assert cli.run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and "error: argument --" in lines[0]

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
        assert [f"{s}/{i}" for s, i, _ in cli.CHECKS] == manifest


class TestConfiguration:
    def test_config_file_sets_seed_and_word_length(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nseed = 11\nword-length = 1\n")
        code, out = run_capture(capsys, ["verify", "--format", "json", "--config", str(cfg)])
        assert code == 0
        rep = json.loads(out)
        assert rep["seed"] == 11
        detail = next(
            c["detail"]
            for s in rep["suites"]
            for c in s["checks"]
            if c["id"] == "coefficient-relations"
        )
        assert "length <= 1" in detail

    def test_cli_seed_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 11\n")
        code, out = run_capture(
            capsys, ["verify", "--seed", "4", "--format", "json", "--config", str(cfg)]
        )
        assert code == 0
        assert json.loads(out)["seed"] == 4

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 1\n")
        assert cli.run(["verify", "--config", str(cfg)]) == 2

    def test_config_file_is_read_by_verify_only(self, tmp_path, monkeypatch):
        (tmp_path / cli.DEFAULT_CONFIG_FILE).write_text("bogus = 1\n")
        monkeypatch.chdir(tmp_path)
        assert cli.run(["roots"]) == 0
        assert cli.run(["verify"]) == 2

    def test_env_var_sets_output_dir(self, tmp_path, capsys, monkeypatch):
        outdir = tmp_path / "out"
        monkeypatch.setenv("G2FORGE_OUTPUT_DIR", str(outdir))
        code, out = run_capture(capsys, ["verify", "--seed", "2", "--format", "json", "--bless"])
        assert code == 0
        assert (outdir / "verify_report.json").exists()
        assert (outdir / "wedge2_display.json").exists()
        # the freshly blessed golden matches in the same run
        rep = json.loads(out)
        golden = next(
            c for s in rep["suites"] for c in s["checks"] if c["id"] == "golden-displayed-blocks"
        )
        assert golden["status"] == "pass"

    def test_missing_golden_is_a_finding_not_a_failure(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("G2FORGE_OUTPUT_DIR", str(tmp_path / "empty"))
        code, out = run_capture(capsys, ["verify", "--seed", "2", "--format", "json"])
        assert code == 0
        rep = json.loads(out)
        golden = next(
            c for s in rep["suites"] for c in s["checks"] if c["id"] == "golden-displayed-blocks"
        )
        assert golden["status"] == "finding"


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
    def test_tracer_patches_every_alias(self, monkeypatch):
        """The benchmark's tracer reaches a function only through module
        namespaces, class dicts and module-level dicts; any other reference
        (a list or tuple of functions, a closure cell) would bypass it."""
        root = os.path.dirname(HERE)
        monkeypatch.syspath_prepend(os.path.join(root, "perfbench"))
        import run
        import selfcheck

        selfcheck.check_aliases(run.import_package(run.ROOT))
        assert selfcheck.failures == []


def _statuses(report):
    return {f"{s['name']}/{c['id']}": c["status"] for s in report["suites"] for c in s["checks"]}


class TestChecksCanFail:
    """Breaking what a check tests turns it to `fail`, and the checks keep
    their force under `python -O`."""

    def test_coefficient_relations(self, monkeypatch):
        from g2forge import triform

        monkeypatch.setattr(triform, "_rows_relations_zero", lambda rows: False)
        statuses = _statuses(cli.run_verify(7, {}))
        assert statuses["triform/coefficient-relations"] == "fail"

    def test_s7_homomorphism(self, monkeypatch):
        from g2forge import triform

        monkeypatch.setattr(triform, "compose_perms", lambda p, q: tuple(range(1, 8)))
        statuses = _statuses(cli.run_verify(7, {}))
        assert statuses["triform/s7-homomorphism"] == "fail"

    def test_verify_under_optimize_flag(self):
        root = os.path.dirname(HERE)
        env = dict(os.environ)
        env.pop("G2FORGE_OUTPUT_DIR", None)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "g2forge.cli", "verify", "--seed", "7", "--format", "json"],
            cwd=root, env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        counts = Counter(_statuses(json.loads(proc.stdout)).values())
        assert counts == {"pass": 46, "finding": 8}
