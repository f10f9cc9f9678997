from __future__ import annotations

import json

import numpy as np
import pytest

from taxicab_ca.cli import run
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
        capsys.readouterr()
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

    def test_malformed_dims_exit_2(self, tmp_path, capsys):
        path = tmp_path / "t.txt"
        path.write_text("2 x 2\n")
        code = run(["tensor", str(path)])
        capsys.readouterr()
        assert code == 2


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

    def test_bad_csv_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\nr1,1\n")
        code = run(["tca", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "row 2" in err

    def test_help_exit_0(self, capsys):
        code = run(["--help"])
        out = capsys.readouterr().out
        assert code == 0
        assert "taxicab" in out
