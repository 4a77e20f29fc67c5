import hashlib
import math
import xml.etree.ElementTree as ET

import pytest

from fblf_ilc import svgplot
from fblf_ilc.cli import main

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


@pytest.mark.parametrize("x, ys", [([0, 1, 2], [0.1, 0.2]),
                                   ([0, 1], [0.1, 0.2, 0.3]),
                                   ([], [1.0])])
def test_mismatched_lengths_rejected(tmp_path, x, ys):
    # no series is cut to the shorter length, and no file is written
    path = tmp_path / "plot.svg"
    with pytest.raises(ValueError, match=f"^{len(x)} x values and "
                                         f"{len(ys)} ys$"):
        svgplot.line_plot(path, x, "y", ys)
    assert not path.exists()


# Golden SHA-256 digests of whole SVG files, recorded before line_plot
# wrote each element kind through one writer, so they pin its bytes:
# attribute order, number formats and escaping.  The calls take log and
# linear scales, a drawn and a hidden hline, a flat series, dropped
# points, markup in labels, an empty series and a single point.
GOLDEN_CALLS = {
    "log": (dict(x=[0, 1, 2, 3], label="sup|e_k|",
                 ys=[1.0, 0.1, 0.01, 0.002], title="convergence",
                 xlabel="k", ylabel="sup|e_k|", ylog=True),
        "f20390302c10c46c9cf3a96addf81266e7cd4f3eaf2cdad08a93c950be2bd0f5"),
    "linear": (dict(x=[0, 1, 2], label="y", ys=[-0.7, 0.3, 0.1]),
        "b49187a70fdb1a00f90d1290983c8bdcb575d14829e898552725bbd71e61afd3"),
    "hline": (dict(x=[0, 1, 2], label="sup V_k", ys=[0.1, 0.2, 0.3],
                   ylabel="V", hline=0.5),
        "f19c6c4f6aec44e0a50ce58da7ab637f0eeb68c3fd176fbcfe3e2ec6caeb8f72"),
    "flat-1e15": (dict(x=[0, 1], label="y", ys=[1e15, 1e15]),
        "1152eb0b0a57a50db3d769758757aae8bd26fd75cf7b9b693755235b4c522f25"),
    "nan": (dict(x=[0, 1, 2, 3], label="y", ys=[0.5, math.nan, -1.0, 2.0],
                 ylog=True, hline=4.0),
        "fe2b01907780cb8b824abe365c3d62981cf183416c6828112d12163769beb41a"),
    "markup": (dict(x=[0, 1, 2], label="e & u", ys=[0.1, 0.2, 0.3],
                    title="sup V < b", xlabel="k > 0",
                    ylabel="a & <b>"),
        "bbd9c7bfeddc2e77048ca4bb3f196662d6c4129f87273629da770c8cb4cd98b8"),
    "log-hline-hidden": (dict(x=[0, 1, 2], label="y", ys=[3.0, 0.3, 0.03],
                              ylog=True, hline=0.0),
        "f9623ccb12c166e6b2908caabc616b1d98a15c51937ac9de9ce8ad7003d84ddc"),
    "empty": (dict(x=[], label="y", ys=[], title="nothing"),
        "643d5b7e7d52610664e04a23f0b6e8e9e87923ca82d46de4fdf688b136585a04"),
    "one-point": (dict(x=[3], label="y", ys=[2.5], hline=1.0),
        "3d977d606c35334ba634047c322ab75b20f9b598937717fd7848110b7e87b06d"),
}


@pytest.mark.parametrize("name", GOLDEN_CALLS)
def test_golden_bytes(tmp_path, name):
    kwargs, digest = GOLDEN_CALLS[name]
    path = tmp_path / "plot.svg"
    svgplot.line_plot(path, **kwargs)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


# the two figures simulate --svg draws for a small criterion-4 config
SIMULATE_GOLDEN = {
    "convergence.svg":
        "2ede61225a03c59c0aca36bbd5aa662fbd051a60ba65c730a7c8589409478104",
    "constraint.svg":
        "c4107f5c175ab6c247dca2518f26099afaa109d120da351f8ce348b082443c1b",
}


def test_golden_simulate_figures(tmp_path):
    cfg = tmp_path / "criterion-4.cfg"
    cfg.write_text("model = scalar-I\ntheorem = 1\nmode = disc\nb_V = 0.5\n"
                   "K = 3\nN = 100\n")
    out = tmp_path / "out"
    assert main(["simulate", str(cfg), "--out", str(out), "--svg"]) == 0
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in SIMULATE_GOLDEN} == SIMULATE_GOLDEN
