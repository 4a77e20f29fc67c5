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


def test_zero_tick_reads_zero(tmp_path):
    # tick j is start + j*step: a running sum from -0.6 by 0.2 drifts to
    # -5.55112e-17 at the tick on zero
    path = tmp_path / "plot.svg"
    svgplot.line_plot(path, [0, 1], "y", [-0.7, 0.3])
    assert y_labels(path) == ["-0.6", "-0.4", "-0.2", "0", "0.2"]


def test_step_below_half_an_ulp_returns(tmp_path):
    # near 1e15 an ULP is 0.125, so a running sum of the 0.05 tick step
    # never grows past the first tick; the tick count is bounded instead
    path = tmp_path / "plot.svg"
    svgplot.line_plot(path, [0, 1], "y", [1e15, 1e15 + 0.125])
    labels = y_labels(path)
    assert 2 <= len(labels) <= 7
    assert all(float(label) == 1e15 for label in labels)


def x_labels(path):
    """The x-axis tick labels, which sit below the plot area."""
    y = str(svgplot._H - svgplot._MB + 18)
    return [el.text for el in ET.parse(path).getroot().iter(SVG + "text")
            if el.get("y") == y]


# (x, y, the flat axis): a flat y series, then a flat x axis
@pytest.mark.parametrize("x, y, axis", [
    pytest.param([0, 1], 1e16, "y", id="1e+16"),
    pytest.param([0, 1], -3e17, "y", id="-3e+17"),
    pytest.param([0, 1], 1e300, "y", id="1e+300"),
    pytest.param([1e16, 1e16], 1.0, "x", id="x=1e+16"),
    pytest.param([1e16], 1.0, "x", id="x=1e+16-one-point"),
    pytest.param([-3e17, -3e17], 1.0, "x", id="x=-3e+17"),
])
def test_flat_series_past_2_53_gets_a_range(tmp_path, x, y, axis):
    # y +- 0.5 and x + 1 round back to themselves, so a flat axis is
    # widened by an amount relative to it
    path = tmp_path / "plot.svg"
    svgplot.line_plot(path, x, "y", [y] * len(x))
    at = y if axis == "y" else x[0]
    labels = [float(label) for label in
              (y_labels if axis == "y" else x_labels)(path)]
    assert len(labels) >= 2
    # within the widening, to a label's six significant digits
    assert all(abs(v - at) <= 1e-5 * abs(at) for v in labels)
    assert len(list(ET.parse(path).getroot().iter(SVG + "polyline"))) == 1


def test_markup_characters_in_text_are_escaped(tmp_path):
    # a raw "<" or "&" in a text node is not well-formed XML
    path = tmp_path / "plot.svg"
    svgplot.line_plot(path, [0, 1, 2], "e & u", [0.1, 0.2, 0.3],
                      title="sup V < b", xlabel="k > 0", ylabel="a & <b>")
    texts = [el.text for el in ET.parse(path).getroot().iter(SVG + "text")]
    for text in ("sup V < b", "e & u", "k > 0", "a & <b>"):
        assert text in texts
