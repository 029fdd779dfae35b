"""Input-file validation and CSV table output shared by the readers and writers."""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError

# One validator per schema, built (and the schema checked) on first use.
_VALIDATORS: dict[int, tuple[dict, object]] = {}

# Rows formatted per write: bounds the Python floats alive at once.
_ROWS_PER_WRITE = 1024

# Most values an output grid (time samples, sweep cells) may hold: studies use
# 5k-50k, and a grid this size (80 MB a column) can still be allocated.
MAX_SAMPLES = 10**7


def validate(doc, schema: dict) -> None:
    """Raise the error ``jsonschema.validate(doc, schema)`` raises, if any,
    then :class:`DimensionError` for the first NaN or infinity in ``doc``
    (JSON readers accept both).

    ``schema`` must be a module constant: its validator is built, and the
    schema itself checked, once per process."""
    import jsonschema

    entry = _VALIDATORS.get(id(schema))
    if entry is None:
        cls = jsonschema.validators.validator_for(schema)
        cls.check_schema(schema)
        entry = _VALIDATORS[id(schema)] = (schema, cls(schema))  # keeps the id in use
    error = jsonschema.exceptions.best_match(entry[1].iter_errors(doc))
    if error is not None:
        raise error
    _require_finite(doc, ())


def require_grid(span: float, step: float, span_name: str, step_name: str) -> None:
    """Raise :class:`DimensionError` when ``span / step`` samples (plus the
    first) are more than ``MAX_SAMPLES``, before any of them is allocated."""
    samples = span / step + 1.0
    if not samples <= MAX_SAMPLES:
        raise DimensionError(f"{span_name} = {span:.6g} at {step_name} = {step:.6g} gives "
                             f"{samples:.3g} samples, more than {MAX_SAMPLES}")


def field_name(path) -> str:
    """``a.b[0].c`` for the JSON path ``("a", "b", 0, "c")``."""
    return "".join(f"[{s}]" if isinstance(s, int) else f".{s}" for s in path).removeprefix(".")


def _require_finite(value, path: tuple) -> None:
    if isinstance(value, dict):
        for key, item in value.items():
            _require_finite(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _require_finite(item, path + (i,))
    elif isinstance(value, float) and not math.isfinite(value):
        raise DimensionError(f"{field_name(path)} must be finite, got {value}")


def write_csv(path, names, formats, columns) -> None:
    """Write equal-length ``columns`` under the header ``names``, each value
    through its column's ``%`` format.

    The bytes are those ``csv.writer`` writes for the same strings (comma
    separated, ``\\r\\n`` line ends): names and formatted numbers need no
    quoting."""
    template = ",".join(formats) + "\r\n"
    columns = [np.asarray(c) for c in columns]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(names) + "\r\n")
        for lo in range(0, len(columns[0]), _ROWS_PER_WRITE):
            rows = zip(*(c[lo:lo + _ROWS_PER_WRITE].tolist() for c in columns))
            fh.writelines(map(template.__mod__, rows))
