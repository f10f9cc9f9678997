from __future__ import annotations

import contextlib
import errno
import io
import json
import os
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import taxicab_ca
from conftest import assert_same_text
from taxicab_ca import cli
from taxicab_ca.cli import build_parser, run
from taxicab_ca.datasets import load_dataset
from taxicab_ca.io import format_tensor
from taxicab_ca.reports import AnalysisReport


def _read_report(path) -> AnalysisReport:
    return AnalysisReport.from_json(path.read_text())


class TestTcaCommand:
    def test_asbestos_report(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = run(["tca", "--dataset", "asbestos", "--axes", "2", "--out", str(out)])
        stdout = capsys.readouterr().out
        assert code == 0
        assert "axis 1" in stdout and "axis 2" in stdout
        report = _read_report(out)
        assert report.method == "tca"
        assert len(report.results["axes"]) == 2
        assert report.results["axes"][0]["delta"] == pytest.approx(0.5328, abs=5e-4)

    def test_flags_are_json_booleans(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        run(["tca", "--dataset", "asbestos", "--axes", "1", "--out", str(out)])
        capsys.readouterr()
        assert json.loads(out.read_text())["results"]["axes"][0]["exact"] is True

    def test_zero_axes(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = run(["tca", "--dataset", "asbestos", "--axes", "0", "--out", str(out)])
        assert capsys.readouterr().out == ""  # no axes were asked for
        assert code == 0
        assert _read_report(out).results["axes"] == []

    def test_determinism_byte_identical(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        run(["tca", "--dataset", "asbestos", "--out", str(out1)])
        run(["tca", "--dataset", "asbestos", "--out", str(out2)])
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_exact_over_budget_exits_3(self, tmp_path, capsys):
        rng = np.random.default_rng(61)
        path = tmp_path / "big.csv"
        counts = rng.integers(1, 9, size=(30, 24))
        header = ",".join(f"c{j}" for j in range(24))
        rows = [f"r{i}," + ",".join(str(v) for v in row) for i, row in enumerate(counts)]
        path.write_text(header + "\n" + "\n".join(rows) + "\n")
        code = run(["tca", str(path), "--exact"])
        err = capsys.readouterr().err
        assert code == 3
        assert "norm_heuristic" in err

    def test_heuristic_over_budget_succeeds(self, tmp_path, capsys):
        rng = np.random.default_rng(62)
        path = tmp_path / "big.csv"
        counts = rng.integers(1, 9, size=(30, 24))
        header = ",".join(f"c{j}" for j in range(24))
        rows = [f"r{i}," + ",".join(str(v) for v in row) for i, row in enumerate(counts)]
        path.write_text(header + "\n" + "\n".join(rows) + "\n")
        code = run(["tca", str(path), "--heuristic", "--axes", "1"])
        capsys.readouterr()
        assert code == 0

    def test_auto_past_the_enumeration_limit_is_heuristic(self, tmp_path, capsys):
        path, out = tmp_path / "t30x23.csv", tmp_path / "r.json"
        counts = np.random.default_rng(66).poisson(4.0, size=(30, 23)) + 1
        header = ",".join(f"c{j}" for j in range(23))
        rows = [f"r{i}," + ",".join(str(v) for v in row) for i, row in enumerate(counts)]
        path.write_text(header + "\n" + "\n".join(rows) + "\n")
        assert run(["tca", str(path), "--out", str(out)]) == 0
        assert "heuristic" in capsys.readouterr().out
        report = json.loads(out.read_text())
        assert report["provenance"]["solver"] == "auto"
        assert report["results"]["axes"]
        assert all(axis["exact"] is False for axis in report["results"]["axes"])


class TestCaCommand:
    def test_asbestos(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = run(["ca", "--dataset", "asbestos", "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        report = _read_report(out)
        assert len(report.results["axes"]) == 3
        sigmas = [rec["sigma"] for rec in report.results["axes"]]
        assert sigmas == sorted(sigmas, reverse=True)

    def test_zero_axes_on_a_table_far_from_independence(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = run(["ca", "--dataset", "americas", "--axes", "0", "--out", str(out)])
        assert capsys.readouterr().out == ""
        assert code == 0
        assert _read_report(out).results["axes"] == []

    def test_no_axes_line_at_independence(self, tmp_path, capsys):
        src = tmp_path / "indep.csv"
        src.write_text("a,b\nr1,1,2\nr2,2,4\n")
        for command in ("tca", "ca"):
            assert run([command, str(src)]) == 0
            assert "no axes" in capsys.readouterr().out, command


class TestMapOutput:
    """``--map`` is rendered before any file is written."""

    @pytest.mark.parametrize("command", ["tca", "ca"])
    def test_failed_map_leaves_no_file(self, tmp_path, capsys, command):
        src = tmp_path / "rank1.csv"
        src.write_text("a,b\nr1,1,2\nr2,3,1\n")  # 2 x 2: one axis only
        out, svg = tmp_path / "o.json", tmp_path / "m.svg"
        code = run([command, str(src), "--out", str(out), "--map", str(svg)])
        assert code == 2
        assert "no axis 2" in capsys.readouterr().err
        assert not out.exists() and not svg.exists()

    @pytest.mark.parametrize("command", ["tca", "ca"])
    @pytest.mark.parametrize("dataset", ["asbestos", "americas"])
    def test_map_leaves_report_bytes_unchanged(self, tmp_path, capsys, command, dataset):
        plain, mapped, svg = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "m.svg"
        assert run([command, "--dataset", dataset, "--out", str(plain)]) == 0
        assert run([command, "--dataset", dataset, "--out", str(mapped), "--map", str(svg)]) == 0
        capsys.readouterr()
        assert mapped.read_bytes() == plain.read_bytes()
        assert "<svg" in svg.read_text()


class TestCompareCommand:
    def test_americas_axis2(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = run(["compare", "--dataset", "americas", "--axis", "2",
                    "--out", str(out)])
        stdout = capsys.readouterr().out
        assert code == 0
        assert "NAFTA" in stdout
        report = _read_report(out)
        nafta = next(r for r in report.results["cols"] if r["label"] == "NAFTA")
        assert nafta["ca"] == pytest.approx(0.821, abs=0.005)
        assert nafta["tca"] == pytest.approx(0.10, abs=0.005)


class TestSeriateCommand:
    def test_asbestos_axis1(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = run(["seriate", "--dataset", "asbestos", "--axis", "1",
                    "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        report = _read_report(out)
        assert abs(report.results["cut_norm"]) == pytest.approx(0.1332, abs=2e-4)

    @pytest.mark.parametrize("axis", ["0", "-1"])
    def test_nonpositive_axis_exit_2(self, tmp_path, capsys, axis):
        out = tmp_path / "r.json"
        code = run(["seriate", "--dataset", "asbestos", "--axis", axis, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: axis must be >= 1\n"
        assert not out.exists()


class TestClusterCommand:
    def test_asbestos_2x2(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = run(["cluster", "--dataset", "asbestos", "--r", "2", "--c", "2",
                    "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        report = _read_report(out)
        assert report.results["objective"] == pytest.approx(0.5328, abs=5e-4)
        assert report.results["method"] == "exhaustive"


    def test_underflowing_p_exits_2(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = run(["cluster", "--dataset", "asbestos", "--r", "2", "--c", "2",
                    "--p", "400", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "f_p underflows at p=400" in err
        assert not out.exists()

    def test_large_p_that_scores_is_unchanged(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = run(["cluster", "--dataset", "asbestos", "--r", "2", "--c", "2",
                    "--p", "300", "--out", str(out)])
        printed = capsys.readouterr().out.splitlines()
        assert code == 0
        assert printed == [
            "objective f_300 = 4.4321e-279 (exhaustive)",
            "  row block 1: 0-9",
            "  row block 2: 10-19, 20-29, 30-39, 40+",
            "  col block 1: G0",
            "  col block 2: G1, G2, G3",
        ]
        assert _read_report(out).results["objective"] == 4.432096273276446e-279

    def test_single_blocks_score_zero_at_large_p(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = run(["cluster", "--dataset", "asbestos", "--r", "1", "--c", "1",
                    "--p", "400", "--out", str(out)])
        printed = capsys.readouterr().out.splitlines()
        assert code == 0
        assert printed[0] == "objective f_400 = 0 (exhaustive)"
        assert _read_report(out).results["objective"] == 0.0


class TestDispersionCommand:
    def test_column(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = run(["dispersion", "--dataset", "asbestos", "--column", "G1",
                    "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        report = _read_report(out)
        values = np.array([36, 158, 35, 102, 35], dtype=float)
        assert report.results["d"] == pytest.approx(
            np.abs(values - values.mean()).sum() / 5
        )
        assert report.results["degenerate"] is False

    def test_missing_column(self, capsys):
        code = run(["dispersion", "--dataset", "asbestos", "--column", "XX"])
        err = capsys.readouterr().err
        assert code == 2
        assert "XX" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("rows, name", [(["1e200,1", "0,1", "5,2"], "s2"),
                                            (["1e308,1", "1e308,1"], "mean"),
                                            (["1,1e308", "2,1e308"], "table total")])
    def test_overflow_exit_2(self, tmp_path, capsys, rows, name):
        path = tmp_path / "m.csv"
        path.write_text("a,b\n" + "".join(f"r{i},{row}\n" for i, row in enumerate(rows)))
        out = tmp_path / "r.json"
        code = run(["dispersion", str(path), "--column", "a", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: {name} overflows")
        assert captured.err.count("\n") == 1
        assert not out.exists()


class TestTensorCommand:
    def test_sign_tensor(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        path.write_text("2 2 2\n1 -1\n-1 1\n-1 1\n1 -1\n")
        out = tmp_path / "r.json"
        code = run(["tensor", str(path), "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        report = _read_report(out)
        assert report.results["delta"] == pytest.approx(8.0)
        assert report.results["exact"] is True

    def test_utf8_bom(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        path.write_bytes(b"\xef\xbb\xbf2 2 2\n1 -1\n-1 1\n-1 1\n1 -1\n")
        out = tmp_path / "r.json"
        code = run(["tensor", str(path), "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        assert _read_report(out).results["delta"] == pytest.approx(8.0)

    def test_malformed_dims_exit_2(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        path.write_text("2 x 2\n")
        code = run(["tensor", str(path)])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_centering_exit_2(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        path.write_text("2 2 1\n1e308 1e308\n-1e308 1e308\n")
        code = run(["tensor", str(path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: triple centering overflows")


class TestReportMatchesFile:
    """The report the CLI builds in memory equals the one its --out file holds."""

    def _check(self, tmp_path, monkeypatch, capsys, argv):
        built, finish = [], cli._finish

        def spy(report, args):
            built.append(report)
            finish(report, args)

        monkeypatch.setattr(cli, "_finish", spy)
        out = tmp_path / "r.json"
        assert run([*argv, "--out", str(out)]) == 0, capsys.readouterr().err
        assert built == [_read_report(out)]

    @pytest.mark.parametrize("dataset", ["asbestos", "americas"])
    @pytest.mark.parametrize("command", ["dispersion", "tca", "ca", "compare", "seriate",
                                         "cluster"])
    def test_matrix_subcommand(self, tmp_path, monkeypatch, capsys, command, dataset):
        extra = {"dispersion": ["--column", load_dataset(dataset).col_labels[1]],
                 "compare": ["--axis", "2"], "seriate": ["--axis", "1"],
                 "cluster": ["--r", "2", "--c", "3"]}.get(command, [])
        self._check(tmp_path, monkeypatch, capsys, [command, "--dataset", dataset, *extra])

    def test_tensor(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "t.txt"
        path.write_text(format_tensor(np.random.default_rng(64).normal(size=(2, 3, 4))))
        self._check(tmp_path, monkeypatch, capsys, ["tensor", str(path)])


class TestResultKeys:
    """Each method's ``results`` keys are pinned: a field added to a result
    dataclass must fail here, not silently change the report bytes."""

    TCA_AXIS = {"axis", "delta", "u", "v", "a", "b", "row_scores", "col_scores",
                "rc_rows", "rc_cols", "heavyweight_rows", "heavyweight_cols",
                "heavyweight_cells", "block_sums", "cut_norm", "exact",
                "indeterminate_u", "indeterminate_v"}
    CA_AXIS = {"axis", "sigma", "lambda", "row_scores", "col_scores", "row_ctr", "col_ctr"}

    @staticmethod
    def _results(tmp_path, capsys, argv) -> dict:
        out = tmp_path / "r.json"
        assert run([*argv, "--out", str(out)]) == 0, capsys.readouterr().err
        return json.loads(out.read_text())["results"]

    @pytest.mark.parametrize("dataset", ["asbestos", "americas"])
    def test_matrix_methods(self, tmp_path, capsys, dataset):
        src = ["--dataset", dataset]
        column = load_dataset(dataset).col_labels[1]
        res = self._results(tmp_path, capsys, ["dispersion", *src, "--column", column])
        assert set(res) == {"d", "s", "s2", "lad", "median", "mean", "rc_d", "rc_s2",
                            "rc_lad", "heavyweight_indices", "degenerate"}
        for flags in ([], ["--heuristic"]):
            res = self._results(tmp_path, capsys, ["tca", *src, *flags])
            assert set(res) == {"axes", "rank_used", "row_masses", "col_masses"}
            assert res["axes"] and all(set(ax) == self.TCA_AXIS for ax in res["axes"])
        res = self._results(tmp_path, capsys, ["ca", *src])
        assert set(res) == {"axes", "total_inertia"}
        assert res["axes"] and all(set(ax) == self.CA_AXIS for ax in res["axes"])
        res = self._results(tmp_path, capsys, ["compare", *src, "--axis", "1"])
        assert set(res) == {"axis", "rows", "cols", "ca_max_contribution",
                            "tca_max_contribution"}
        for point in res["rows"] + res["cols"]:
            assert set(point) == {"label", "ca", "tca"}
        res = self._results(tmp_path, capsys, ["seriate", *src, "--axis", "1"])
        assert set(res) == {"axis", "s_opt", "t_opt", "block_sums", "cut_norm", "row_order",
                            "col_order", "row_order_labels", "col_order_labels"}
        res = self._results(tmp_path, capsys, ["cluster", *src, "--r", "2", "--c", "2"])
        assert set(res) == {"row_blocks", "col_blocks", "objective", "p", "method"}

    def test_tensor(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        path.write_text(format_tensor(np.random.default_rng(67).normal(size=(3, 4, 2))))
        res = self._results(tmp_path, capsys, ["tensor", str(path)])
        assert set(res) == {"delta", "u", "v", "w", "octant_sums", "s_opt", "t_opt", "w_opt",
                            "exact"}


class TestCanonicalReportText:
    """Each --out file is ``json.dumps(report, sort_keys=True, indent=2)`` plus a newline."""

    @staticmethod
    def _check(tmp_path, capsys, argv):
        out = tmp_path / "r.json"
        assert run([*argv, "--out", str(out)]) == 0, capsys.readouterr().err
        text = out.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("dataset", ["asbestos", "americas"])
    @pytest.mark.parametrize("command", [["dispersion"], ["tca"], ["tca", "--heuristic"],
                                         ["ca"], ["compare", "--axis", "2"],
                                         ["seriate", "--axis", "1"],
                                         ["cluster", "--r", "2", "--c", "3"]])
    def test_matrix_subcommand(self, tmp_path, capsys, command, dataset):
        if command == ["dispersion"]:
            command = [*command, "--column", load_dataset(dataset).col_labels[1]]
        self._check(tmp_path, capsys, [*command, "--dataset", dataset])

    def test_tensor(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        path.write_text(format_tensor(np.random.default_rng(65).normal(size=(3, 2, 4))))
        self._check(tmp_path, capsys, ["tensor", str(path)])

    @pytest.mark.parametrize("solver", [[], ["--heuristic"]])
    def test_tall_poisson_table(self, tmp_path, capsys, solver):
        # the masses, signs and projections of 3000 rows repeat most of their
        # values, so the writer formats each distinct value once
        path, out = tmp_path / "tall.csv", tmp_path / "r.json"
        path.write_text(_csv_text(np.random.default_rng(68).poisson(3.0, size=(3000, 14))))
        with mock.patch.object(AnalysisReport, "to_json", autospec=True,
                               side_effect=AnalysisReport.to_json) as to_json, \
             mock.patch.object(np, "unique", wraps=np.unique) as unique:
            code = run(["tca", str(path), "--axes", "2", *solver, "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        assert unique.call_count > 0
        payload = vars(to_json.call_args.args[0])
        assert_same_text(out.read_text(encoding="utf-8"),
                         json.dumps(payload, sort_keys=True, indent=2) + "\n")


class TestErrorPaths:
    def test_unknown_flag_exit_2(self, capsys):
        code = run(["tca", "--dataset", "asbestos", "--bogus"])
        capsys.readouterr()
        assert code == 2

    def test_unknown_subcommand_exit_2(self, capsys):
        code = run(["frobnicate"])
        capsys.readouterr()
        assert code == 2

    def test_missing_source_exit_2(self, capsys):
        code = run(["tca"])
        err = capsys.readouterr().err
        assert code == 2
        assert "CSV" in err or "dataset" in err

    def test_both_sources_exit_2(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_text("a\nr,1\n")
        code = run(["tca", str(path), "--dataset", "asbestos"])
        capsys.readouterr()
        assert code == 2

    def test_missing_file_exit_2(self, capsys):
        code = run(["tca", "/nonexistent/file.csv"])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("command,text", [
        ("tca", "a,b\nr\u00e9,1,2\nr2,3,4\n"),
        ("tensor", "1 2 1\n3 4 # caf\u00e9\n"),
    ])
    def test_non_utf8_input_named_with_offset(self, tmp_path, capsys, command, text):
        path = tmp_path / "latin1.txt"
        path.write_bytes(text.encode("latin-1"))
        code = run([command, str(path)])
        err = capsys.readouterr().err
        offset = text.index("\u00e9")
        assert code == 2
        assert err == f"error: {path}: not UTF-8 at byte offset {offset}: invalid continuation byte\n"

    def test_bad_csv_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\nr1,1\n")
        code = run(["tca", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "row 2" in err

    @pytest.mark.parametrize("argv", [
        ["tca", "--dataset", "asbestos", "--out", "", "--map", "m.svg"],
        ["tca", "--dataset", "asbestos", "--out", "r.json", "--map", ""],
        ["tca", "", "--dataset", "asbestos", "--out", "r.json", "--map", "m.svg"],
    ])
    def test_empty_path_exit_2(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        code = run(argv)
        assert code == 2
        assert "empty path" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []  # no report, no map

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("argv", [["tca"], ["ca"], ["seriate", "--axis", "1"],
                                      ["cluster", "--r", "2", "--c", "2"]])
    def test_overflowing_total_exit_2(self, tmp_path, capsys, argv):
        path = tmp_path / "m.csv"
        path.write_text("a,b\nr1,1e308,1e308\nr2,1e308,1e308\n")
        code = run([argv[0], str(path), *argv[1:]])
        assert code == 2
        assert capsys.readouterr().err == "error: counts total overflows float64\n"

    @pytest.mark.parametrize("argv", [["tca"], ["ca"], ["compare", "--axis", "1"],
                                      ["seriate", "--axis", "1"],
                                      ["cluster", "--r", "2", "--c", "2"]])
    @pytest.mark.parametrize(("text", "message"), [
        ("a,b,c\nr1,1,2,0\nr2,0,0,0\nr3,3,0,1\n", "row 'r2' (line 3) is all zero"),
        ("a,b,c\nr1,1,0,2\nr2,3,0,1\nr3,1,0,1\n", "column 'b' (field 3) is all zero"),
        ("a,b\nr1,0,0\nr2,0,0\n", "zero total"),
    ])
    def test_all_zero_line_named_by_label_and_place(self, tmp_path, capsys, argv, text, message):
        path = tmp_path / "m.csv"
        path.write_text(text)
        code = run([argv[0], str(path), *argv[1:]])
        assert code == 2
        source = f"{path}: " if message != "zero total" else ""
        assert capsys.readouterr().err == f"error: {source}{message}\n"

    def test_help_exit_0(self, capsys):
        code = run(["--help"])
        out = capsys.readouterr().out
        assert code == 0
        assert "taxicab" in out


class TestNearIndependence:
    """Tables whose residual is far below the rounding of p - r c' still center."""

    CSV = "a,b\nr1,1000000,1000000\nr2,1000000,1000001\n"

    @pytest.mark.parametrize("argv", [
        ["tca"], ["ca"], ["cluster", "--r", "2", "--c", "2"], ["seriate", "--axis", "1"],
    ])
    def test_subcommand_accepts_table(self, tmp_path, capsys, argv):
        src, out = tmp_path / "t.csv", tmp_path / "r.json"
        src.write_text(self.CSV)
        code = run([argv[0], str(src), *argv[1:], "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 0, err
        assert _read_report(out).method

    def test_tca_deflates_near_independent_tables(self, tmp_path, capsys):
        rng = np.random.default_rng(63)
        counts = np.round(1e7 * rng.uniform(1, 2, size=(5, 1)) * rng.uniform(1, 2, size=4))
        src, out = tmp_path / "t.csv", tmp_path / "r.json"
        src.write_text(_csv_text((counts + rng.integers(0, 3, size=counts.shape)).astype(int)))
        assert run(["tca", str(src), "--out", str(out)]) == 0, capsys.readouterr().err
        assert len(_read_report(out).results["axes"]) >= 2


class TestInPlaceWriter:
    """``--out`` and ``--map`` overwrite an existing file in place."""

    ARGV = ["tca", "--dataset", "asbestos", "--axes", "1"]

    def _fresh_bytes(self, tmp_path) -> bytes:
        path = tmp_path / "fresh.json"
        assert run([*self.ARGV, "--out", str(path)]) == 0
        return path.read_bytes()

    def test_short_report_over_longer_file(self, tmp_path, capsys):
        out, link = tmp_path / "r.json", tmp_path / "hard.json"
        out.write_bytes(b"x" * 200_000)
        os.link(out, link)
        inode = out.stat().st_ino
        assert run([*self.ARGV, "--out", str(out)]) == 0
        expected = self._fresh_bytes(tmp_path)
        capsys.readouterr()
        assert out.read_bytes() == expected
        assert out.stat().st_ino == inode
        assert link.read_bytes() == expected

    def test_symlink_is_written_through(self, tmp_path, capsys):
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        target.write_text("old contents " * 100)
        link.symlink_to(target)
        assert run([*self.ARGV, "--out", str(link)]) == 0
        expected = self._fresh_bytes(tmp_path)
        capsys.readouterr()
        assert link.is_symlink()
        assert target.read_bytes() == expected

    def test_mode_is_kept(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        out.write_text("old")
        out.chmod(0o600)
        assert run([*self.ARGV, "--out", str(out)]) == 0
        capsys.readouterr()
        assert out.stat().st_mode & 0o777 == 0o600
        assert out.read_bytes() == self._fresh_bytes(tmp_path)

    def test_dev_null(self, capsys):
        argv = ["tca", "--dataset", "asbestos", "--out", os.devnull, "--map", os.devnull]
        assert run(argv) == 0
        capsys.readouterr()

    def test_never_truncates_on_open(self, tmp_path, capsys, monkeypatch):
        flags = []
        real_open = os.open

        def spy(path, flag, *args, **kwargs):
            flags.append(flag)
            return real_open(path, flag, *args, **kwargs)

        out, svg = tmp_path / "r.json", tmp_path / "m.svg"
        out.write_text("old " * 1000)
        monkeypatch.setattr(os, "open", spy)
        argv = ["tca", "--dataset", "americas", "--out", str(out), "--map", str(svg)]
        assert run(argv) == 0
        capsys.readouterr()
        assert len(flags) == 2
        assert all(flag & os.O_CREAT and not flag & os.O_TRUNC for flag in flags)

    def test_failed_write_leaves_empty_file(self, tmp_path, capsys, monkeypatch):
        class HalfWrite:
            """Writes half of the text, then fails as a full disk would."""

            def __init__(self, fh):
                self._fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._fh.close()

            def write(self, text):
                self._fh.write(text[: len(text) // 2])
                self._fh.flush()
                raise OSError(errno.ENOSPC, "No space left on device")

        out = tmp_path / "r.json"
        out.write_bytes(b"x" * 200_000)
        monkeypatch.setattr(cli, "open", lambda *a, **k: HalfWrite(open(*a, **k)),
                            raising=False)
        code = run([*self.ARGV, "--out", str(out)])
        assert code == 2
        assert "No space left" in capsys.readouterr().err
        assert out.read_bytes() == b""


_FRESH_RUN = textwrap.dedent("""
    import contextlib, io, sys, json
    from taxicab_ca.cli import run

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = run(json.loads(sys.argv[1]))
    print(code)
""")


class TestParserReuse:
    """One parser serves every call of a process without leaking state."""

    def test_build_parser_is_fresh(self):
        assert build_parser() is not build_parser()

    def test_consecutive_calls_match_fresh_processes(self, tmp_path, capsys):
        calls = [
            ["tca", "--dataset", "asbestos", "--axes", "2"],
            ["cluster", "--dataset", "asbestos", "--r", "2", "--c", "3", "--p", "1.5"],
            ["tca", "--dataset", "asbestos", "--exact", "--heuristic"],
            ["tca", "--dataset", "asbestos"],
            ["seriate", "--dataset", "americas", "--axis", "2"],
        ]
        src = os.path.dirname(os.path.dirname(taxicab_ca.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        for k, argv in enumerate(calls):
            here, fresh = tmp_path / f"here{k}.json", tmp_path / f"fresh{k}.json"
            code = run([*argv, "--out", str(here)])
            capsys.readouterr()
            proc = subprocess.run(
                [sys.executable, "-c", _FRESH_RUN, json.dumps([*argv, "--out", str(fresh)])],
                env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            assert code == int(proc.stdout), argv
            assert here.exists() == fresh.exists(), argv
            if here.exists():
                assert here.read_bytes() == fresh.read_bytes(), argv
        # the --axes 2 of the first call must not stick to the fourth
        axes = _read_report(tmp_path / "here3.json").results["axes"]
        assert len(axes) == 3


@st.composite
def _count_tables(draw):
    """Small count tables with zero lines, single rows or columns, and ties."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    counts = np.array(draw(st.lists(st.integers(0, 4), min_size=n * m, max_size=n * m)),
                      dtype=np.int64).reshape(n, m)
    if draw(st.integers(0, 4)) == 0:  # rare, since from_counts rejects the table
        counts[draw(st.integers(0, n - 1))] = 0
    if draw(st.integers(0, 4)) == 0:
        counts[:, draw(st.integers(0, m - 1))] = 0
    if m > 1 and draw(st.booleans()):
        counts[:, -1] = counts[:, 0]
    if n > 1 and draw(st.booleans()):
        counts[-1] = counts[0]
    return counts


@st.composite
def _small_tensors(draw):
    shape = tuple(draw(st.integers(1, 4)) for _ in range(3))
    size = int(np.prod(shape))
    cells = draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size))
    return np.array(cells, dtype=float).reshape(shape)


def _csv_text(counts: np.ndarray) -> str:
    lines = [",".join(f"c{j + 1}" for j in range(counts.shape[1]))]
    lines += [f"r{i + 1}," + ",".join(map(str, row)) for i, row in enumerate(counts.tolist())]
    return "\n".join(lines) + "\n"


def _session(csv_path: Path, tensor_path: Path, out: Path, axis: int,
             r: int, c: int, p: float) -> list[list[str]]:
    """One call of each of the seven subcommands."""
    src, dump = [str(csv_path)], ["--out", str(out)]
    return [
        ["dispersion", *src, "--column", "c1", *dump],
        ["tca", *src, *dump],
        ["ca", *src, "--map", str(out.with_suffix(".svg")), *dump],
        ["compare", *src, "--axis", str(axis), *dump],
        ["seriate", *src, "--axis", str(axis), *dump],
        ["cluster", *src, "--r", str(r), "--c", str(c), "--p", str(p), *dump],
        ["tensor", str(tensor_path), *dump],
    ]


class TestFuzz:
    """Every subcommand on odd small inputs exits 0, 2 or 3 without a traceback."""

    @settings(max_examples=40, deadline=None)
    @given(counts=_count_tables(), tensor=_small_tensors(),
           axis=st.integers(1, 3), r=st.integers(1, 3), c=st.integers(1, 3),
           p=st.sampled_from([1.0, 1.5, 2.0, 0.5, 1e308, float("inf"), float("nan")]))
    def test_subcommands_on_small_tables(self, counts, tensor, axis, r, c, p):
        with tempfile.TemporaryDirectory() as tmp:
            csv_path, tensor_path = Path(tmp) / "t.csv", Path(tmp) / "t.txt"
            csv_path.write_text(_csv_text(counts))
            tensor_path.write_text(format_tensor(tensor))
            for argv in _session(csv_path, tensor_path, Path(tmp) / "r.json", axis, r, c, p):
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = run(argv)
                assert code in (0, 2, 3), (argv, code, err.getvalue())
                assert "Traceback" not in err.getvalue(), argv

    def test_fixed_cases_under_optimize_flag(self, tmp_path):
        # (table, tensor, p): a zero row, 1 x k, k x 1, independence, ties
        cases = [
            ([[1, 2], [0, 0], [3, 1]], np.zeros((1, 1, 1)), 1.0),
            ([[1, 2, 3]], np.ones((2, 3, 2)), 1.5),
            ([[1], [2], [3]], np.zeros((1, 1, 1)), 2.0),
            ([[2, 4], [1, 2]], np.ones((2, 3, 2)), float("inf")),
            ([[1, 1, 0], [1, 1, 0], [0, 0, 2]], np.arange(8.0).reshape(2, 2, 2), 1e308),
        ]
        calls = []
        for k, (table, tensor, p) in enumerate(cases):
            csv_path, tensor_path = tmp_path / f"{k}.csv", tmp_path / f"{k}.txt"
            csv_path.write_text(_csv_text(np.array(table)))
            tensor_path.write_text(format_tensor(tensor))
            calls += _session(csv_path, tensor_path, tmp_path / "r.json", 2, 2, 2, p)
        script = textwrap.dedent("""
            import contextlib, io, json, sys
            from taxicab_ca.cli import run

            assert False, "assertions must be stripped under -O"
            for argv in json.loads(sys.argv[1]):
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = run(argv)
                print(code, "Traceback" in err.getvalue())
        """)
        src = os.path.dirname(os.path.dirname(taxicab_ca.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-O", "-c", script, json.dumps(calls)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        results = [line.split() for line in proc.stdout.splitlines()]
        assert len(results) == len(calls)
        assert all(code in ("0", "2", "3") and tb == "False" for code, tb in results), results
