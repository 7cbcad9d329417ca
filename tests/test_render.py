"""The vectorised '%.12g' renderer against Python's own formatting.

Every value must print exactly as format(x + 0.0, ".12g"), whichever SIMD
path numpy's log10, floor and rint take, so these tests also run with
numpy's dispatched CPU features disabled.
"""

import sys

import numpy as np
import pytest

import corrchan.render as render
from corrchan.render import cells, labels, lines


def _reference(values) -> list[str]:
    return [format(x + 0.0, ".12g") for x in np.asarray(values, dtype=float).ravel().tolist()]


def _rendered(values) -> list[str]:
    """Each value alone on a line, through `lines`, so that every value is a
    varying cell."""
    values = np.asarray(values, dtype=float).reshape(-1, 1)
    return "".join(lines([(values, [])])).split("\r\n")[:-1]


def _words_text(words) -> list[str]:
    """The text of each cell of `cells`, without its leading ','."""
    rows = np.asarray(words).reshape(-1, render.WORDS).view(np.uint8)
    return [bytes(row).replace(b"\0", b"").decode("ascii")[1:] for row in rows]


def test_random_bit_patterns_over_every_exponent():
    # 2^20 doubles drawn from random bits: every exponent, both signs,
    # subnormals, and a few NaN and inf
    rng = np.random.default_rng(20240611)
    x = rng.integers(0, 2**64, size=1 << 20, dtype=np.uint64).view(np.float64)
    assert _rendered(x) == _reference(x)


SPECIAL = [
    0.0, -0.0, 5e-324, -5e-324, sys.float_info.min, -sys.float_info.min,
    1e-280, -1e-280, 1e280, -1e280, np.nextafter(1e-280, 0), np.nextafter(1e280, np.inf),
    # near ties: the exact product of the value and 10^(11 - e) is a half-integer
    # or within rounding of one
    123456789012.5, -123456789012.5, 999999999999.5, 9.999999999995e-5, 99999999999.95,
    0.5000000000005, 1.0000000000005, 2.5e-9,
    # the edges of the fixed notation and of 12 digits
    1e-5, 1e-4, 9.99999999999e-5, 0.0001000000000005, 1e11, 1e12, 99999999999.9,
    999999999999.0, 999999999999.4, 1e16, 1e17, sys.float_info.max, -sys.float_info.max,
    float("nan"), float("inf"), -float("inf"),
    1.0, 12.0, 1200.0, -1.5, 2.0 / 3.0, 0.1 + 0.2, 1 - 1e-15, 100.0 / 11.0,
]


@pytest.mark.parametrize("x", SPECIAL)
def test_special_values(x):
    assert _rendered([x]) == _reference([x])
    assert _rendered([x, 0.25]) == _reference([x, 0.25])
    assert _words_text(cells(x)) == _reference([x])


def test_powers_of_ten_and_their_neighbours():
    powers = np.array([float(f"1e{k}") for k in range(-300, 301)])
    values = [powers]
    up, down = powers.copy(), powers.copy()
    for _ in range(4):  # 1 to 4 ulps on each side
        up, down = np.nextafter(up, np.inf), np.nextafter(down, 0.0)
        values += [up, down]
    values = np.concatenate(values)
    values = np.concatenate([values, -values])
    assert _rendered(values) == _reference(values)


def test_near_ties_take_the_exact_route(monkeypatch):
    exact = []
    real = render._dtoa

    def spy(values):
        exact.extend(values)
        return real(values)

    monkeypatch.setattr(render, "_dtoa", spy)
    ties = [123456789012.5, 999999999999.5, 9.999999999995e-5, 0.5000000000005]
    plain = [0.123456789012, 2.0 / 3.0, 50.0 / 7.0]
    assert _rendered(ties + plain) == _reference(ties + plain)
    assert sorted(exact) == sorted(ties)
    exact.clear()
    # and so do the values outside the fast range, but not 0, NaN or inf
    outside = [5e-324, 1e-300, 1e300, sys.float_info.max]
    assert _rendered(outside + [0.0, np.nan, np.inf]) == _reference(outside + [0.0, np.nan, np.inf])
    assert sorted(exact) == sorted(outside)


def test_cells_keep_the_shape_and_render_in_chunks(monkeypatch):
    monkeypatch.setattr(render, "CHUNK", 7)
    x = np.linspace(-3.0, 3.0, 60).reshape(3, 4, 5)
    words = cells(x)
    assert words.shape == (3, 4, 5, render.WORDS)
    assert _words_text(words) == _reference(x)


@pytest.mark.parametrize("chunk", [1, 5, 64, 1 << 12])
def test_lines_are_the_same_in_any_chunks(chunk, monkeypatch):
    """Blocks of lines with lead columns of one row and of every row, text
    labels, constant and NaN columns, split into chunks of any size."""
    monkeypatch.setattr(render, "CHUNK", chunk)
    rng = np.random.default_rng(chunk)
    blocks, expected = [], []
    times = np.linspace(0.0, 7.0, 30)
    t_cells = cells(times)
    names = [f"n{k}" for k in range(30)]
    for mu in (0.0, 0.5, -0.0):
        data = rng.normal(size=(30, 4)) * 10.0 ** rng.integers(-20, 20, size=(30, 4))
        data[:, 1] = mu
        data[:, 2] = np.nan
        blocks.append((data, [t_cells, cells(mu), labels(names)]))
        expected += [",".join([t, _reference([mu])[0], name, *_reference(row)])
                     for t, name, row in zip(_reference(times), names, data)]
    chunks = lines(iter(blocks))
    assert "".join(chunks) == "".join(line + "\r\n" for line in expected)
    assert all(chunk.endswith("\r\n") for chunk in chunks)
    if chunk == 1:
        assert len(chunks) == 90  # no varying column of a line fits beside another's


def test_labels_pad_any_length():
    names = ["a", "phi+:phi-", "random123456789", "x" * 40]
    data = np.zeros((4, 1))
    assert "".join(lines([(data, [labels(names)])])) == "".join(f"{n},0\r\n" for n in names)
