import xml.etree.ElementTree as ET

import numpy as np
import pytest

from newsvar.svgplot import line_band_svg


def sample_figure():
    h = np.arange(21)
    center = 0.5 * 0.8**h
    return line_band_svg(h, center, center - 0.2, center + 0.2, title="demo")


def test_output_is_well_formed_xml():
    root = ET.fromstring(sample_figure())
    assert root.tag.endswith("svg")
    paths = [el for el in root.iter() if el.tag.endswith("path")]
    assert len(paths) == 2  # band polygon and center line


@pytest.mark.parametrize("name", ["R&D", "x<y", "a > b & <c>"])
def test_markup_in_text_is_escaped(name):
    # before: the title and label were written raw, so "R&D" gave a file
    # that XML parsers reject as not well-formed
    h = np.arange(3)
    svg = line_band_svg(h, h, h - 1.0, h + 1.0, title=f"{name} response", ylabel=name)
    texts = [el.text for el in ET.fromstring(svg).iter() if el.tag.endswith("text")]
    assert texts[-2:] == [f"{name} response", name]


def test_identical_input_gives_identical_bytes():
    assert sample_figure() == sample_figure()


def test_zero_line_present_even_for_positive_band():
    h = np.arange(5)
    svg = line_band_svg(h, h + 1.0, h + 0.5, h + 1.5)
    root = ET.fromstring(svg)
    lines = [el for el in root.iter() if el.tag.endswith("line")]
    assert any(el.get("stroke-dasharray") for el in lines)


def test_mismatched_shapes_rejected():
    with pytest.raises(ValueError, match="share a shape"):
        line_band_svg([0, 1], [0.0], [0.0], [0.0])


def test_single_point_rejected():
    with pytest.raises(ValueError, match="two horizons"):
        line_band_svg([0], [1.0], [0.5], [1.5])
