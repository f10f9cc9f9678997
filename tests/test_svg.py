from __future__ import annotations

import hashlib
import re
import string
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape, quoteattr

import pytest
from hypothesis import given
from hypothesis import strategies as st

from taxicab_ca import svg as svg_module
from taxicab_ca.cli import run
from taxicab_ca.reports import AnalysisReport, build_tca_report
from taxicab_ca.svg import render_map
from taxicab_ca.taxicab import tca


def _tca_report(data, P):
    dec = tca(P)
    return build_tca_report(dec, data, "test", {"sha256": "0", "solver": "auto",
                                                "tolerances": {}})


def _marker_coords(svg: str) -> dict[str, tuple[float, float]]:
    points = {}
    for match in re.finditer(
        r'data-label="([^"]+)" data-x="([^"]+)" data-y="([^"]+)"', svg
    ):
        points[match.group(1)] = (float(match.group(2)), float(match.group(3)))
    return points


class TestRenderMap:
    def test_asbestos_g0_coordinates(self, asbestos, asbestos_P):
        svg = render_map(_tca_report(asbestos, asbestos_P), (1, 2))
        coords = _marker_coords(svg)
        x, y = coords["G0"]
        # canonical axis orientation fixes the sign; magnitude matches the scores
        assert abs(x) == pytest.approx(0.5175, abs=1e-3)
        assert y == pytest.approx(0.0, abs=1e-3)

    def test_valid_xml(self, asbestos, asbestos_P):
        svg = render_map(_tca_report(asbestos, asbestos_P))
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")

    def test_americas_identical_profiles_overlap(self, americas, americas_P):
        svg = render_map(_tca_report(americas, americas_P), (1, 2))
        coords = _marker_coords(svg)
        assert coords["Canada"] == pytest.approx(coords["UnitedStates"], abs=1e-9)

    def test_single_point_degenerate(self):
        report = AnalysisReport(
            method="tca",
            inputs={"row_labels": ["only"], "col_labels": []},
            provenance={},
            results={"axes": [
                {"axis": 1, "row_scores": [0.0], "col_scores": []},
                {"axis": 2, "row_scores": [0.0], "col_scores": []},
            ]},
        )
        svg = render_map(report)
        ET.fromstring(svg)
        assert 'data-label="only"' in svg

    def test_too_few_axes(self, asbestos, asbestos_P):
        report = _tca_report(asbestos, asbestos_P)
        with pytest.raises(ValueError, match="axis 9"):
            render_map(report, (1, 9))

    def test_wrong_method(self):
        report = AnalysisReport(method="dispersion", inputs={}, provenance={},
                                results={})
        with pytest.raises(ValueError, match="no factor map"):
            render_map(report)

    def test_deterministic(self, asbestos, asbestos_P):
        report = _tca_report(asbestos, asbestos_P)
        assert render_map(report) == render_map(report)


class TestCliMap:
    def test_map_file_written(self, tmp_path, capsys):
        out = tmp_path / "map.svg"
        code = run(["tca", "--dataset", "asbestos", "--map", str(out)])
        capsys.readouterr()
        assert code == 0
        svg = out.read_text()
        ET.fromstring(svg)
        assert 'data-label="G0"' in svg


class TestEscaping:
    """The map's own escapers write what ``xml.sax.saxutils`` writes."""

    @given(st.text(alphabet=string.ascii_letters + "&<>\"'\t\n\r"))
    def test_match_saxutils(self, text):
        assert svg_module._escape(text) == escape(text)
        assert svg_module._quoteattr(text) == quoteattr(text)

    def test_special_labels_golden(self):
        # the sha256 of this map as xml.sax.saxutils escaped it
        report = AnalysisReport(
            method="tca",
            inputs={"row_labels": ["A&B", "<x>", 'say "hi"', "it's", "both\"'", "tab\there"],
                    "col_labels": ["line\nbreak", "cr\rhere", "a>b", "plain"]},
            provenance={},
            results={"axes": [
                {"axis": 1, "row_scores": [0.5, -0.25, 0.125, -0.375, 0.0, 0.75],
                 "col_scores": [-0.5, 0.625, 0.25, -0.125]},
                {"axis": 2, "row_scores": [0.25, 0.5, -0.75, 0.0, -0.125, 0.375],
                 "col_scores": [0.125, -0.25, 0.5, -0.625]},
            ]},
        )
        svg = render_map(report)
        assert "data-label='say \"hi\"'" in svg and 'data-label="both&quot;\'"' in svg
        assert (hashlib.sha256(svg.encode("utf-8")).hexdigest()
                == "ad940fc5a2f63a444f76123145d443fb433c76a57996752bb0297a1d070f279b")
