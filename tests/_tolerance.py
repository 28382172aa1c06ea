"""Report comparison at roundoff tolerance, for tests that block a grid
differently.

Each sum of the tensor pass adds its row blocks' sums in row order, so
another blocking of the same grid moves an integral in its last bits.  A
margin or an identity's residual is a difference of a report's integrals,
so it moves by as much relative to the report's largest magnitude.
"""

import math

REL = 1e-13


def _magnitudes(value):
    if isinstance(value, dict):
        for v in value.values():
            yield from _magnitudes(v)
    elif isinstance(value, (list, tuple)):
        for v in value:
            yield from _magnitudes(v)
    elif type(value) is float and math.isfinite(value):
        yield abs(value)


def assert_reports_close(want, got, rel=REL):
    """got has want's keys, lengths, strings, booleans, integers and
    non-finite floats, and each finite float of got lies within rel of
    want's, relative to the larger of the two or to the largest finite
    magnitude in want."""
    floor = rel * max(_magnitudes(want), default=0.0)

    def visit(a, b, path):
        if isinstance(a, dict):
            assert isinstance(b, dict) and a.keys() == b.keys(), path
            for k in a:
                visit(a[k], b[k], f"{path}.{k}")
        elif isinstance(a, (list, tuple)):
            assert type(b) is type(a) and len(a) == len(b), path
            for i, (x, y) in enumerate(zip(a, b)):
                visit(x, y, f"{path}[{i}]")
        elif type(a) is float and math.isfinite(a):
            assert type(b) is float, path
            assert abs(a - b) <= max(rel * max(abs(a), abs(b)), floor), (path, a, b)
        else:
            assert type(a) is type(b) and (a == b or a != a and b != b), (path, a, b)

    visit(want, got, "$")
