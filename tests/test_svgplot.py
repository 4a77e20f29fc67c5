import math
import xml.etree.ElementTree as ET

import pytest

from fblf_ilc import svgplot

SVG = "{http://www.w3.org/2000/svg}"


def y_labels(path):
    """The y-axis tick labels, which sit left of the plot area."""
    x = str(svgplot._ML - 8)
    return [el.text for el in ET.parse(path).getroot().iter(SVG + "text")
            if el.get("x") == x]


# a range inside one decade, one decade from end to end, many decades
@pytest.mark.parametrize("lo, hi", [(2e-3, 8e-3), (1e-3, 1e-2),
                                    (3e-7, 40.0)])
@pytest.mark.parametrize("ylog", [True, False])
def test_axis_labels_are_values_in_range(tmp_path, lo, hi, ylog):
    path = tmp_path / "plot.svg"
    svgplot.line_plot(path, [0, 1, 2], "sup|e|", [hi, math.sqrt(lo * hi), lo],
                      ylog=ylog)
    labels = y_labels(path)
    assert len(labels) >= 2
    for label in labels:
        # a label has six significant digits
        assert lo * (1 - 1e-5) <= float(label) <= hi * (1 + 1e-5), label


def test_series_label_and_cap_drawn(tmp_path):
    path = tmp_path / "plot.svg"
    svgplot.line_plot(path, [0, 1, 2], "sup V_k", [0.1, 0.2, 0.3],
                      hline=0.5)
    root = ET.parse(path).getroot()
    assert len(list(root.iter(SVG + "polyline"))) == 1
    assert [el.get("stroke-dasharray") for el in root.iter(SVG + "line")
            if el.get("stroke-dasharray")] == ["6 4"]
    assert "sup V_k" in [el.text for el in root.iter(SVG + "text")]


@pytest.mark.parametrize("ys", [[0.0, 0.0, 0.0], [0.0, math.nan, -1.0]])
def test_log_axis_with_no_positive_point(tmp_path, ys):
    # nothing to draw on a log axis: the axis still has a range
    path = tmp_path / "plot.svg"
    svgplot.line_plot(path, [0, 1, 2], "sup|e|", ys, ylog=True)
    root = ET.parse(path).getroot()
    assert list(root.iter(SVG + "polyline")) == []
    assert len(y_labels(path)) >= 2
