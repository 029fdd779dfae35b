"""The CSV writer: byte-exact numeric formats and bounded memory."""

import tracemalloc

import numpy as np
import pytest

from gridstep.fileio import write_csv

ULPS = (-2, -1, 0, 1, 2)


def _nudged(x, ulps):
    """``x`` moved by ``ulps`` units in the last place (toward +-inf)."""
    for _ in range(abs(ulps)):
        x = np.nextafter(x, np.copysign(np.inf, ulps))
    return x


def _written(tmp_path, fmt, values):
    path = tmp_path / "col.csv"
    write_csv(path, ["v"], [fmt], [values])
    lines = path.read_bytes().split(b"\r\n")
    assert lines[0] == b"v" and lines[-1] == b""
    return [line.decode() for line in lines[1:-1]]


def _mismatches(tmp_path, fmt, values):
    got = _written(tmp_path, fmt, values)
    want = [fmt % v for v in values.tolist()]
    assert len(got) == len(want)
    return [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]


def test_e12_matches_python_on_adversarial_doubles(tmp_path):
    rng = np.random.default_rng(11)
    parts = []
    # Decimal midpoints between 13-digit neighbours, and the doubles next to them.
    for e in range(-14, 16):
        mid = (rng.integers(10**12, 10**13, 1400) + 0.5) * 10.0 ** (e - 12)
        parts += [_nudged(mid, u) for u in ULPS]
    # Powers of ten and the values that round up to them.
    decades = 10.0 ** np.arange(-30, 31)
    for base in (decades, 9.9999999999995 * decades):
        parts += [_nudged(base, u) for u in range(-3, 4)]
    parts.append(np.ldexp(1.0, np.arange(-1074, 1024)))
    parts.append(np.array([0.0, np.inf, np.nan]))
    values = np.concatenate(parts)
    values = np.concatenate([values, -values])      # -0.0, -inf and NaN with its sign bit
    assert len(values) >= 200_000 and np.signbit(values[np.isnan(values)]).any()
    assert _mismatches(tmp_path, "%.12e", values) == []


def test_f9_and_d_match_python(tmp_path):
    rng = np.random.default_rng(12)
    mid = (rng.integers(0, 4 * 10**15, 4000) + 0.5) * 1e-9
    parts = [_nudged(mid, u) for u in ULPS]
    parts += [np.arange(4001) * 0.005, np.arange(1001) * (1 / 3),
              np.ldexp(1.0, np.arange(-1074, 1024)),
              np.array([0.0, 4e6, np.nextafter(4e6, 0.0), 5e-10, 1e300, np.inf, np.nan])]
    values = np.concatenate(parts)
    assert _mismatches(tmp_path, "%.9f", np.concatenate([values, -values])) == []
    ints = np.concatenate([np.arange(-12000, 12000), rng.integers(-10**12, 10**12, 2000),
                           [10**8 - 1, 10**8, -10**8, 2**63 - 1, -2**63]])
    assert _mismatches(tmp_path, "%d", ints) == []
    floats = np.array([-0.5, -0.0, 0.7, 2.7, -2.7, 99999999.9, -1e8, 1e300])
    assert _mismatches(tmp_path, "%d", floats) == []
    # Integer and single-precision input is formatted as its double value.
    assert _mismatches(tmp_path, "%.12e", np.array([-3, 0, 7, 10**15])) == []
    assert _mismatches(tmp_path, "%.12e", rng.normal(size=1000).astype(np.float32)) == []
    assert _mismatches(tmp_path, "%.9f", np.array([-3, 0, 7, 10**15])) == []


@pytest.mark.parametrize("rows", [0, 1, 383, 384, 1000])
def test_table_matches_csv_writer(tmp_path, rows):
    """A trajectory-shaped table (any row count, chunk edges included) gives
    the bytes ``csv.writer`` writes for Python's strings."""
    import csv

    rng = np.random.default_rng(rows)
    t = np.arange(rows) * 0.005
    x = rng.normal(size=(rows, 3)) * 10.0 ** rng.integers(-12, 14, size=(rows, 3))
    h = np.where(np.arange(rows) % 3 == 0, np.nan, rng.normal(size=rows))
    stage = rng.integers(-1, 4, rows)
    names = ["t", "a", "b", "c", "h", "stage"]
    formats = ["%.9f", "%.12e", "%.12e", "%.12e", "%.12e", "%d"]
    columns = [t, *x.T, h, stage]
    write_csv(tmp_path / "got.csv", names, formats, columns)
    with open(tmp_path / "want.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for row in zip(*(c.tolist() for c in columns)):
            writer.writerow([f % v for f, v in zip(formats, row)])
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_large_table_memory_stays_small(tmp_path):
    """Writing 10^5 rows of 25 columns holds one chunk at a time: the peak
    of numpy and Python allocations stays under 4 MB (the table is 20 MB)."""
    rng = np.random.default_rng(0)
    n = 100_000
    columns = [np.arange(n) * 0.005, *rng.normal(size=(23, n)), rng.integers(-1, 5, n)]
    formats = ["%.9f"] + ["%.12e"] * 23 + ["%d"]
    names = [f"c{k}" for k in range(25)]
    tracemalloc.start()
    try:
        write_csv(tmp_path / "big.csv", names, formats, columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
