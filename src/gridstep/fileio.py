"""Input-file reading and validation, and CSV table output shared by the
readers and writers.

Input documents are checked against the schema dicts ``network.GRID_SCHEMA``,
``scenario.DEOC_SCENARIO_SCHEMA`` and ``scenario.DFEC_SCENARIO_SCHEMA`` by a
small walker that knows the eight JSON Schema keywords those use: ``type``,
``required``, ``properties``, ``additionalProperties: false``, ``items``,
``enum``, ``minimum`` and ``exclusiveMinimum``. It reports the error, in the
words, that ``jsonschema.validate`` (Draft 2020-12, jsonschema 4.26) reports,
except that a document value's ``repr`` is cut to ``_SHOWN_CHARS``
characters (:func:`shown`); the tests keep jsonschema as its oracle."""

from __future__ import annotations

import functools
import itertools
import json
import math
import numbers
from types import SimpleNamespace

import numpy as np

from .errors import DimensionError, InputFormatError

# Values formatted per write, whatever the table's width (384 rows of an
# ieee39 trajectory's 23 columns). The kernels hold a few dozen bytes per value
# at once, so a chunk peaks near 1.2 MB (tests/test_fileio.py).
_VALUES_PER_WRITE = 384 * 23

# Most characters of a document value an error message shows: a longer
# ``repr`` is cut to this length, ending in "...".
_SHOWN_CHARS = 80

# Most values an output grid (time samples, sweep cells) may hold: studies use
# 5k-50k, and a grid this size (80 MB a column) can still be allocated.
MAX_SAMPLES = 10**7


def read_text(path) -> str:
    """The text of an input file: its bytes decoded as UTF-8."""
    with open(path, "rb") as fh:
        return fh.read().decode("utf-8")


def parse_json(text: str, path):
    """The JSON document ``text`` of the file ``path``. JSON nested deeper
    than the parser's recursion allows is an :class:`InputFormatError`
    naming the file."""
    try:
        return json.loads(text)
    except RecursionError:
        raise InputFormatError(f"{path}: JSON nested too deeply to read") from None


def read_json(path):
    """The JSON document in the file ``path``, as :func:`parse_json` reads it."""
    return parse_json(read_text(path), path)


def validate(doc, schema: dict) -> None:
    """Raise :class:`InputFormatError` for the error ``jsonschema.validate(doc,
    schema)`` raises, if any, with the text ``where: message`` (the message
    alone for the whole document; document values in it as :func:`shown`
    gives them); then :class:`DimensionError` for the first
    NaN or infinity in ``doc`` (JSON readers accept both).

    ``schema`` may use the keywords ``type``, ``required``, ``properties``,
    ``additionalProperties: false``, ``items``, ``enum`` (of strings),
    ``minimum`` and ``exclusiveMinimum``; any other keyword raises
    ``ValueError`` when it is reached. Each value of the document then has
    one schema, so jsonschema's ``best_match`` picks the shallowest error,
    the greatest path among those, the first error on that path."""
    errors = _schema_errors(doc, schema)
    if errors:
        path, message = max(errors, key=lambda error: (-len(error[0]), error[0]))
        where = field_name(path)
        raise InputFormatError(f"{where}: {message}" if where else message)
    _require_finite(doc)


def require_grid(span: float, step: float, span_name: str, step_name: str) -> None:
    """Raise :class:`DimensionError` when ``span / step`` samples (plus the
    first) are more than ``MAX_SAMPLES``, before any of them is allocated."""
    samples = span / step + 1.0
    if not samples <= MAX_SAMPLES:
        raise DimensionError(f"{span_name} = {span:.6g} at {step_name} = {step:.6g} gives "
                             f"{samples:.3g} samples, more than {MAX_SAMPLES}")


def shown(value) -> str:
    """``repr(value)`` as an error message shows it: cut to
    ``_SHOWN_CHARS`` characters, ending in ``...``, when it is longer."""
    return _clipped(repr(value))


def _clipped(text: str) -> str:
    return text if len(text) <= _SHOWN_CHARS else text[:_SHOWN_CHARS - 3] + "..."


def field_name(path) -> str:
    """``a.b[0].c`` for the JSON path ``("a", "b", 0, "c")``."""
    return "".join(f"[{s}]" if isinstance(s, int) else f".{s}" for s in path).removeprefix(".")


_TYPES = {
    "array": lambda v: isinstance(v, list),
    "boolean": lambda v: isinstance(v, bool),
    "integer": lambda v: not isinstance(v, bool) and (
        isinstance(v, int) or isinstance(v, float) and v.is_integer()),
    "null": lambda v: v is None,
    "number": lambda v: not isinstance(v, bool) and isinstance(v, numbers.Number),
    "object": lambda v: isinstance(v, dict),
    "string": lambda v: isinstance(v, str),
}


def _schema_errors(doc, schema: dict) -> list[tuple[tuple, str]]:
    """``(path, message)`` of each error jsonschema's Draft 2020-12 validator
    yields for ``doc`` under ``schema``; a value's errors come in its
    schema's keyword order."""
    errors = []
    todo = [(doc, schema, ())]
    while todo:
        value, schema, path = todo.pop()
        for key, arg in schema.items():
            message = None
            if key == "type":
                types = [arg] if isinstance(arg, str) else arg
                if not any(_TYPES[t](value) for t in types):
                    message = f"{shown(value)} is not of type {', '.join(map(repr, types))}"
            elif key == "enum":
                if value not in arg:            # the options are strings
                    message = f"{shown(value)} is not one of {arg!r}"
            elif key == "minimum":
                if _TYPES["number"](value) and value < arg:
                    message = f"{shown(value)} is less than the minimum of {arg!r}"
            elif key == "exclusiveMinimum":
                if _TYPES["number"](value) and value <= arg:
                    message = f"{shown(value)} is less than or equal to the minimum of {arg!r}"
            elif key == "required":
                if isinstance(value, dict):
                    errors += [(path, f"{name!r} is a required property")
                               for name in arg if name not in value]
            elif key == "properties":
                if isinstance(value, dict):
                    todo += [(value[name], sub, path + (name,))
                             for name, sub in arg.items() if name in value]
            elif key == "additionalProperties" and arg is False:
                if isinstance(value, dict):
                    extras = sorted((name for name in value if name not in
                                     schema.get("properties", {})), key=str)
                    if extras:
                        message = (f"Additional properties are not allowed "
                                   f"({_clipped(', '.join(map(repr, extras)))} "
                                   f"{'was' if len(extras) == 1 else 'were'} unexpected)")
            elif key == "items" and isinstance(arg, dict):
                if isinstance(value, list):
                    todo += [(item, arg, path + (i,)) for i, item in enumerate(value)]
            else:
                raise ValueError(f"schema keyword {key!r}: {arg!r} is not supported")
            if message is not None:
                errors.append((path, message))
    return errors


def _require_finite(doc) -> None:
    """Raise :class:`DimensionError` for the first NaN or infinity in ``doc``,
    in document order; iterative, so any nesting depth is checked."""
    todo = [((), doc)]
    while todo:
        path, value = todo.pop()
        if isinstance(value, dict):
            todo += reversed([(path + (key,), item) for key, item in value.items()])
        elif isinstance(value, list):
            todo += reversed([(path + (i,), item) for i, item in enumerate(value)])
        elif isinstance(value, float) and not math.isfinite(value):
            raise DimensionError(f"{field_name(path)} must be finite, got {value}")


def write_csv(path, names, formats, columns) -> None:
    """Write equal-length ``columns`` under the header ``names``, each value
    through its column's format: ``%.12e``, ``%.9f`` or ``%d``.

    The bytes are those ``csv.writer`` writes for the same strings (comma
    separated, ``\\r\\n`` line ends; names and formatted numbers need no
    quoting), and each formatted value is the string Python's ``%`` gives.
    The numbers are formatted in numpy: each chunk of rows becomes one
    NUL-padded ``uint8`` matrix, a fixed-width field per value that starts
    with its comma, and dropping its NUL bytes leaves the chunk's text."""
    columns = [np.asarray(c) for c in columns]
    runs = [(fmt, [c for _, c in run]) for fmt, run in
            itertools.groupby(zip(formats, columns), key=lambda fc: fc[0])]
    chunk = max(1, _VALUES_PER_WRITE // len(columns))
    with open(path, "wb") as fh:
        fh.write((",".join(names) + "\r\n").encode())
        for lo in range(0, len(columns[0]), chunk):
            rows = min(chunk, len(columns[0]) - lo)
            # One kernel call per run of same-format columns, row by row.
            blocks = [_KERNELS[fmt](np.stack([c[lo:lo + rows] for c in run], axis=1).ravel())
                      .reshape(rows, -1) for fmt, run in runs]
            line = np.hstack(blocks + [np.tile(np.frombuffer(b"\r\n", np.uint8), (rows, 1))])
            line[:, 0] = 0                        # the first field's comma
            fh.write(line[line != 0].tobytes())


def _e12_fields(v: np.ndarray) -> np.ndarray:
    """``f",{x:.12e}"`` for each double ``x`` of ``v``, one NUL-padded row of
    ``uint8`` each.

    Each ``|x|`` in ``[1e-10, 1e13)`` is scaled by an exact ``10^k``
    (``0 <= k <= 22``) to the product ``p``. On ``(1e12, 1e13)`` its ulp is at
    most ``2^-9``, so halves lie on its grid, and ``p``, within half an ulp of
    the exact product, rounds to 13 significant digits as the exact product
    does unless ``p`` is itself a half. NaN is written here; zero, subnormals,
    infinities, values outside that range, products that are halves and
    products outside ``(1e12, 1e13)`` (``log10`` one decade off) go through
    Python's ``%`` one at a time."""
    t = _tables()
    v = v.astype(float, copy=False)
    a = np.abs(v)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(a))
    fast = (e >= -10.0) & (e <= 12.0)     # False on 0, inf, NaN and out of range
    a[~fast], e[~fast] = 1.0, 0.0
    p = a * t.pow10[(12.0 - e).astype(np.intp)]
    d = np.rint(p)
    fast &= (p > 1e12) & (p < 1e13) & (np.abs(p - d) != 0.5)
    carry = d == 1e13
    d[carry] = 1e12
    e += carry
    lead = np.floor(d / 1e12)             # d < 2^53: the quotients floor exactly
    nan = np.isnan(v)
    words = np.empty((5, len(v)), dtype="<u4")
    head = np.where(nan, 20.0, lead + 10.0 * (v < 0.0))
    _take(t.heads, head, words[0])                   # ",\0d." / ",-d." / ",nan"
    _put_digits(d - lead * 1e12, words[1:4], t)
    _take(t.exponents, e + 10.0, words[4])           # "e+dd"
    if nan.any():
        words[1:, nan] = 0
    return _by_python(_fields(words), v, np.flatnonzero(~fast & ~nan), "%.12e")


def _f9_fields(v: np.ndarray) -> np.ndarray:
    """``",%.9f" % x`` for each double ``x`` of ``v``, as :func:`_e12_fields`
    does it: ``|x| < 4e6`` in numpy (``|x| 10^9 < 2^52``, whose ulp is at
    most 0.5), the rest and products that are halves through Python."""
    t = _tables()
    v = v.astype(float, copy=False)
    a = np.abs(v)
    fast = a < 4e6                        # False on inf and NaN
    a[~fast] = 0.0
    p = a * 1e9
    d = np.rint(p)
    fast &= np.abs(p - d) != 0.5
    units = np.floor(d / 1e9)
    d -= units * 1e9
    tenths = np.floor(d / 1e8)
    words = np.empty((6, len(v)), dtype="<u4")
    words[0] = np.where(np.signbit(v), ord(",") | ord("-") << 24, ord(","))
    _put_int(units, words[1:3], t)
    _take(t.points, tenths, words[3])                # "\0\0.d"
    _put_digits(d - tenths * 1e8, words[4:6], t)
    return _by_python(_fields(words), v, np.flatnonzero(~fast), "%.9f")


def _d_fields(v: np.ndarray) -> np.ndarray:
    """``",%d" % x`` for each number ``x`` of ``v`` (truncated toward zero);
    ``|x| >= 10^8`` and NaN go through Python. The arithmetic is float64's,
    as in the other kernels."""
    x = v.astype(float)
    fast = (x > -1e8) & (x < 1e8)
    words = np.empty((3, len(v)), dtype="<u4")
    words[0] = np.where(x <= -1.0, ord(",") | ord("-") << 24, ord(","))
    _put_int(np.where(fast, np.floor(np.abs(x)), 0.0), words[1:3], _tables())
    return _by_python(_fields(words), v, np.flatnonzero(~fast), "%d")


_KERNELS = {"%.12e": _e12_fields, "%.9f": _f9_fields, "%d": _d_fields}


def _put_digits(n, words, t):
    """Write the decimal digits of the integers ``n`` (floats below
    ``min(2^53, 10^(4 w))``), zero-padded, into the ``w`` rows of 4-byte
    ``words``. The float quotients floor exactly below 2^53."""
    for i in range(len(words) - 1, -1, -1):
        q = np.floor(n / 1e4)
        _take(t.digits, n - q * 1e4, words[i])
        n = q


def _put_int(n, words, t):
    """Write ``"%d"`` of the integers ``0 <= n < 10^8`` (floats) into the two
    rows of 4-byte ``words``, with NUL for the leading zeros."""
    q = np.floor(n / 1e4)
    _take(t.highs, q, words[0])
    _take(t.lows, n - q * 1e4 + 1e4 * (q > 0.0), words[1])


def _take(table, index, out):
    """``out[:] = table[index]`` for float indices known to be in range."""
    np.take(table, index.astype(np.intp), out=out, mode="clip")


def _fields(words):
    """The ``(w, n)`` 4-byte words as ``n`` rows of ``4 w`` bytes."""
    return np.ascontiguousarray(words.T).view(np.uint8)


def _by_python(out, v, slow, fmt):
    """``out`` with the fields at ``slow`` (after their comma) replaced by
    Python's ``fmt``, widened with NUL columns when one of them needs it."""
    texts = [(fmt % v[i]).encode() for i in slow.tolist()]
    width = max(map(len, texts), default=0) + 1
    if width > out.shape[1]:
        out = np.hstack([out, np.zeros((len(out), width - out.shape[1]), dtype=np.uint8)])
    for i, text in zip(slow.tolist(), texts):
        out[i, 1:] = 0
        out[i, 1:len(text) + 1] = np.frombuffer(text, dtype=np.uint8)
    return out


@functools.cache
def _tables() -> SimpleNamespace:
    """Exact doubles ``10^0 .. 10^22``, the scales of :func:`_e12_fields`,
    then the little-endian 4-byte words the kernels assemble fields from:
    ``digits[n]`` spells ``0 <= n < 10^4`` in four digits; ``highs[n]`` the
    same with NUL for leading zeros (all NUL for 0); ``lows[n]`` is
    ``highs[n]`` but ``"\\0\\0\\00"`` for 0, and ``lows[10^4 + n]`` is
    ``digits[n]``. ``heads`` holds ``",\\0d."``, ``",-d."`` and ``",nan"``
    (index ``d``, ``10 + d`` and 20), ``exponents`` ``"e-10" .. "e+13"`` and
    ``points`` ``"\\0\\0.d"``.

    Words are built from two-digit pairs with the float64 operations the
    kernels run anyway: integer arithmetic on the full range pages in about
    0.6 MB more memory."""
    pow10 = np.array([float(10**k) for k in range(23)])
    k = np.arange(100.0)
    tens = np.floor(k / 10.0)
    pair = tens + ord("0") + 256.0 * (k - 10.0 * tens + ord("0"))  # "dd" as a 2-byte value
    short = np.where(k >= 10.0, pair, 256.0 * (k + ord("0")))      # "\0d" below 10
    digits = (pair[:, None] + 65536.0 * pair).astype("<u4").ravel()   # at 100 * high + low
    highs = (np.where(k > 0.0, short, 0.0)[:, None] + 65536.0 * pair).astype("<u4").ravel()
    highs[:100] = 65536.0 * short                                      # below 100: "\0\0" first
    lows = np.concatenate([highs, digits])                             # lows[0] is "\0\0\00"
    highs[0] = 0
    exp = np.arange(-10.0, 14.0)
    e_tens = np.floor(np.abs(exp) / 10.0)
    tables = SimpleNamespace(
        pow10=pow10, digits=digits, highs=highs, lows=lows,
        heads=np.append(_words(ord(","), np.repeat([0.0, ord("-")], 10),
                               np.tile(np.arange(10.0), 2) + ord("0"), ord(".")),
                        _words(*b",nan")),
        exponents=_words(ord("e"), np.where(exp < 0.0, ord("-"), ord("+")), e_tens + ord("0"),
                         np.abs(exp) - 10.0 * e_tens + ord("0")),
        points=_words(0.0, 0.0, ord("."), np.arange(10.0) + ord("0")))
    for table in vars(tables).values():
        table.flags.writeable = False     # one set, shared by every call
    return tables


def _words(b0, b1, b2, b3) -> np.ndarray:
    """Little-endian 4-byte words of the byte values ``b0 .. b3`` (floats or
    arrays of them, broadcast)."""
    return np.asarray(b0 + 256.0 * (b1 + 256.0 * (b2 + 256.0 * b3))).astype("<u4")
