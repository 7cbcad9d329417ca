"""The '%.12g' text of float arrays, built by numpy with no Python string
per cell, and CSV lines assembled from it.

`cells(x)` writes the text of each value v of x, byte for byte as
'%.12g' % (v + 0.0) prints it (so -0.0 prints as 0), into five
little-endian words of 8 bytes: a ',' that separates the cell from the one
before it, the sign and a prefix for 0.000ddd; three words of four digits,
each digit followed by a slot for the point; and the exponent. Every byte
that does not print is NUL. `lines` places such words in a matrix of one
row per CSV line, drops the byte places that are NUL in every line, and
deletes the other NULs with one `bytes.translate`.

The bytes are '%.12g''s. For 1e-280 <= |v| < 1e280 the decimal exponent e
is floor(log10 |v|), and y = |v| 10^(11 - e) is one product with a
correctly rounded power of ten. Two roundings leave y within about 2e-4 of
the exact product, so where y lies in [1e11, 1e12), rint(y) is the 12-digit
mantissa that '%.12g' rounds to unless that product lies near a
half-integer: y is kept only where |frac(y) - 1/2| > 1e-3 and
rint(y) < 1e12. Every other finite value, one whose log10 landed one off
next to a power of ten included, takes its digits and exponent from
'%.11e' % |v|, CPython's correctly rounded dtoa, which '%g' uses too; NaN
and inf print as 'nan', 'inf' and '-inf'. The layout is '%g''s: fixed
notation for exponents -4 <= e < 12, else d.ddde+XX, with trailing zeros
and a bare point dropped.
"""

import numpy as np

_ZERO, _POINT, _MINUS, _COMMA = b"0.-,"
_WORD = np.dtype("<u8")
WORDS = 5  # per cell

# cells rendered at once: the lines of a table are built in chunks of this
# many cells, so that their temporaries do not grow with the table
CHUNK = 1 << 11

# the fast path's range, and 10^k for every k = 11 - e it needs, from
# _K_MIN on, correctly rounded from exact integers by Python's int to float
# and int / int (numpy's pow need not round them correctly)
_FAST_MIN, _FAST_MAX = 1e-280, 1e280
_K_MIN = -270
_POW10 = np.concatenate([(1 / np.full(-_K_MIN, 10, dtype=object) ** np.arange(-_K_MIN, 0, -1)),
                         np.full(294, 10, dtype=object) ** np.arange(294)]).astype(float)


def _words(text: np.ndarray) -> np.ndarray:
    """Rows of 8 k bytes as rows of k words."""
    return np.ascontiguousarray(text, dtype=np.uint8).view(_WORD)


def _quads():
    """The word of each group of four digits 0000 to 9999, d 0xff d 0xff
    d 0xff d 0xff, then a word of 0xff, which AND leaves as it is; and the
    number of zeros that end each group."""
    digits = np.ix_(*[np.arange(10, dtype=np.uint8)] * 4)
    quads = np.full((10_001, 8), 0xFF, np.uint8)
    quads[:-1, 0::2] = np.stack(np.broadcast_arrays(*digits), axis=-1).reshape(-1, 4) + _ZERO
    zero, one = [d == 0 for d in digits], np.uint8(1)
    trailing = zero[3] * (one + zero[2] * (one + zero[1] * (one + zero[0])))
    return _words(quads)[:, 0], trailing.reshape(-1)


_QUADS, _TRAILING = _quads()
_ONES = len(_QUADS) - 1  # the word of 0xff
# the zeros that end a mantissa whose later groups are 0000
_TRAILING_MID, _TRAILING_HIGH = _TRAILING + 4, _TRAILING + 8


def _layouts():
    """The first four words of a cell, by (sign * 17 + exponent class) * 13
    + significant digits: the class is e + 4 for the fixed notation,
    -4 <= e < 12, and 16 for the exponential. The first word holds the
    separator, the sign and the prefix (0. to 0.000 for e < 0); the others,
    taken with AND over the words of `_QUADS`, hold 0xff at each digit that
    prints and '.' in the slot of the point where digits follow it."""
    e = np.arange(-4, 13)[:, None, None]  # 12: any exponent outside [-4, 11]
    fixed = e < 12
    significant = np.arange(13)[:, None]
    point = np.where(fixed, np.maximum(e + 1, 0), 1)  # digits before the point
    length = np.maximum(significant, point)  # digits that print
    j = np.arange(12)
    digits = np.stack(np.broadcast_arrays(np.where(j < length, 0xFF, 0),
                                          np.where((j == point - 1) & (length > point), _POINT, 0)),
                      axis=-1)
    zeros = np.where(fixed & (e < 0), -e, 0)  # the zeros of 0.000ddd
    k = np.arange(5)
    prefix = np.where(k == 1, _POINT, _ZERO) * ((zeros > 0) & (k <= zeros))
    shape = (2, 17, 13)
    first = [np.full(shape + (1,), _COMMA), np.broadcast_to(np.array([0, _MINUS]).reshape(2, 1, 1, 1),
                                                              shape + (1,)),
             np.broadcast_to(prefix, shape + (5,)), np.zeros(shape + (1,), int),
             np.broadcast_to(digits.reshape(17, 13, 24), shape + (24,))]
    return _words(np.concatenate(first, axis=-1, dtype=np.uint8, casting="unsafe").reshape(-1, 32))


_LAYOUTS = _layouts()


def _exponents():
    """The last word of a cell, by decimal exponent from -324 to 308: NUL
    in the fixed range [-4, 11], else 'e', the sign and two or three digits."""
    e = np.arange(-324, 309)
    digits = np.abs(e)[:, None] // [100, 10, 1] % 10 + _ZERO
    text = np.zeros((len(e), 8), np.uint8)
    text[:, 0], text[:, 1] = ord("e"), np.where(e < 0, _MINUS, ord("+"))
    text[:, 2:5] = np.where(np.abs(e)[:, None] >= 100, digits,
                            np.column_stack([digits[:, 1:], np.zeros_like(e)]))
    text[(e >= -4) & (e < 12)] = 0
    return _words(text)[:, 0]


_E_MIN = -324
_EXPONENTS = _exponents()
# the layout index of each decimal exponent from -324 on, with 12 significant
# digits, and what a negative value adds to it
_E = np.arange(_E_MIN, 309)
_CLASSES = np.where((_E >= -4) & (_E < 12), _E + 4, 16) * 13 + 12
_NEGATIVE = 17 * 13
_NAN, _INF, _MINUS_INF, _CRLF = _words(np.frombuffer(
    b",\0nan\0\0\0,\0inf\0\0\0,-inf\0\0\0\r\n\0\0\0\0\0\0", np.uint8).reshape(4, 8))[:, 0]


def cells(x) -> np.ndarray:
    """The '%.12g' text of each value of the float array x + 0.0, after a
    ',', as words of shape x.shape + (WORDS,), rendered CHUNK values at a
    time."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape + (WORDS,), _WORD)
    values, words = x.reshape(-1), out.reshape(-1, WORDS)
    for start in range(0, len(values), CHUNK):
        _cells(values[start:start + CHUNK], words[start:start + CHUNK])
    return out


def _cells(v, out) -> None:
    """`cells` of the 1-d array v, written to the rows of `out`."""
    a = np.abs(v)
    # values outside the fast range, 0, NaN and inf become _FAST_MIN or
    # _FAST_MAX, and fall to the exact route
    clipped = np.fmin(np.fmax(a, _FAST_MIN), _FAST_MAX)
    e = np.floor(np.log10(clipped)).astype(np.int64)
    y = clipped * _POW10.take(11 - _K_MIN - e)
    m = np.rint(y)
    exact = ~((clipped == a) & (np.abs(y - m) < 0.5 - 1e-3) & (m < 1e12) & (y >= 1e11))
    if special := exact.any():
        m[exact] = e[exact] = 0  # zero prints as 0; NaN and inf are written below
        slow = np.flatnonzero(exact & (a > 0) & (a < np.inf))
        m[slow], e[slow] = _dtoa(a[slow].tolist())
    mantissa = m.astype(np.int64)
    high = mantissa // 100_000_000
    low = mantissa // 10_000
    mid = low - high * 10_000
    low = mantissa - low * 10_000
    e -= _E_MIN
    kind = _CLASSES.take(e) - np.where(low, _TRAILING.take(low), np.where(
        mid, _TRAILING_MID.take(mid), _TRAILING_HIGH.take(high)))
    kind += (v < 0) * _NEGATIVE
    quads = _LAYOUTS.take(kind, axis=0)
    quads &= _QUADS.take(np.stack([np.full_like(high, _ONES), high, mid, low], axis=1))
    out[:, :4] = quads
    out[:, 4] = _EXPONENTS.take(e)
    if special and not np.isfinite(v).all():
        bad = ~np.isfinite(v)
        out[bad] = 0
        out[bad, 0] = np.where(np.isnan(v[bad]), _NAN, np.where(v[bad] < 0, _MINUS_INF, _INF))


def _dtoa(values: list[float]) -> tuple[list[int], list[int]]:
    """The 12-digit mantissa and the decimal exponent of each positive
    finite value, from CPython's correctly rounded '%.11e'."""
    text = ["%.11e" % value for value in values]
    return [int(t[0] + t[2:13]) for t in text], [int(t[14:]) for t in text]


def labels(texts) -> np.ndarray:
    """Cells of text, each after a ',', as words of shape (len(texts), k)."""
    text = np.array([f",{t}" for t in texts], dtype=bytes)
    padded = np.zeros((len(texts), -(-text.itemsize // 8) * 8), np.uint8)
    padded[:, :text.itemsize] = text.view(np.uint8).reshape(len(texts), -1)
    return _words(padded)


def lines(blocks) -> list[str]:
    """The CRLF text of a table, in chunks of whole lines, from `blocks`, an
    iterable of (data, lead) taken one at a time: data a 2-d float array,
    one line per row, whose '%.12g' cells end the line, and lead the columns
    before them, words from `cells` or `labels` of data's rows or of one row
    that every line of the block repeats. Every column of a table has the
    same width. The cells of as many blocks as fill CHUNK cells are rendered
    in one pass; a column of data that is constant over its block is
    rendered once, and NaN never equals itself, so a column with a NaN is
    rendered in every row."""
    chunks, batch, size = [], [], 0
    for data, lead in blocks:
        data = np.asarray(data, dtype=float)
        lead = [np.reshape(column, (-1, column.shape[-1])) for column in lead]
        constant = (data == data[0]).all(axis=0)
        columns = np.flatnonzero(constant), np.flatnonzero(~constant)
        rows = max(1, CHUNK // max(len(columns[1]), 1))
        for first in range(0, len(data), rows):
            part = slice(first, first + rows)
            cost = len(columns[0]) + data[part].shape[0] * len(columns[1])  # cells to render
            if size + cost > CHUNK and batch:
                chunks.append(_text(batch))
                batch, size = [], 0
            batch.append((data[part], [c if len(c) == 1 else c[part] for c in lead], columns))
            size += cost
    if batch:
        chunks.append(_text(batch))
    return chunks


def _text(batch) -> str:
    """The lines of a batch of `lines`, its cells rendered in one pass: a
    matrix of words, one row per line, that holds the first line of a block
    with every cell the block repeats, copied to its other lines, then the
    other cells; the byte places that are NUL in every line are dropped, and
    the other NULs deleted."""
    rendered = cells(np.concatenate([piece for data, _, (fixed, varying) in batch
                                     for piece in (data[0, fixed], data[:, varying].ravel())]))
    data, lead, _ = batch[0]
    spans, offset = [], 0
    for column in lead:
        spans.append(slice(offset, offset + column.shape[1]))
        offset += column.shape[1]
    words = np.empty((sum(len(data) for data, _, _ in batch), offset + WORDS * data.shape[1] + 1),
                     _WORD)
    words[:, -1] = _CRLF
    row = at = 0
    for data, lead, (fixed, varying) in batch:
        block = words[row:row + len(data)]
        line_cells = block[:, offset:-1].reshape(*data.shape, WORDS)
        line_cells[0, fixed] = rendered[at:at + len(fixed)]
        at += len(fixed)
        for column, span in zip(lead, spans):
            block[0, span] = column[0]
        block[1:] = block[0]
        for column, span in zip(lead, spans):
            if len(column) > 1:
                block[1:, span] = column[1:]
        line_cells[:, varying] = rendered[at:at + len(data) * len(varying)].reshape(
            len(data), len(varying), WORDS)
        at += len(data) * len(varying)
        row += len(data)
    words[:, 0] &= ~np.uint64(0xFF)  # no separator before the first cell
    used = np.bitwise_or.reduce(words, axis=0).view(np.uint8) != 0
    # `take` keeps C order; a boolean index on axis 1 returns F order, which
    # `tobytes` copies through a transpose
    kept = words.view(np.uint8).take(np.flatnonzero(used), axis=1)
    return kept.tobytes().translate(None, b"\0").decode("ascii")
