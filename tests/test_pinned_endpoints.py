"""The interval searches' results, pinned bit for bit.

Every interval kind (JEL, centered AJEL at the default ``a_n`` and at
``a_n = 3``, literal AJEL, DNEL and VXL) on exponential, lognormal and
normal samples of n = 3 to 3000 at levels from 0.5 to 1 - 1e-15, as
10-sample batches and as one-sample calls, two samples of each batch
scaled by 2**1000 and 2**-1000.  Each case records the ``float.hex`` of
lower, upper and point estimate and ``endpoint_iterations``, or the
error's type and text, with the ``float.hex`` of a stalled search's best
point.  The file ``data/pinned_endpoints.json`` was written by an earlier
implementation of the search, so a rewrite of the search that changes a
single bit or evaluation fails here.

It was rewritten when the searches stopped evaluating their shrunk hull
bounds, where a plain ratio diverges: a search that had probed its bound
took the same midpoint one round earlier, so 757 entries report 1 or 2
fewer evaluations, and the 36 that failed with "ratio stays below the
threshold out to the hull bound" now fail with a stalled search's error
and best point.  No lower, upper or estimate bit moved.

It was last rewritten when centered AJEL's unbounded sides were decided in
closed form, from the ratio's limit far from the data: the 828 entries
that failed with "adjusted ratio appears bounded below the threshold; the
interval does not close on this side" (centered AJEL, n = 3 to 50) are now
lower ``-inf``, upper ``inf``, the point estimate and 0 evaluations.  The
other 4 356 entries kept every bit.

Rewrite the file (only for a deliberate change of results) with
``PYTHONPATH=src python tests/test_pinned_endpoints.py``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from pwmjel import (CI_METHODS, ConvergenceError, DistSpec, PwmError, confidence_interval,
                    make_rng, sample)
from pwmjel.inference import confidence_intervals

DATA = Path(__file__).parent / "data" / "pinned_endpoints.json"
FAMILIES = ("exponential", "lognormal", "normal")
SIZES = (3, 5, 8, 50, 300, 3000)
LEVELS = (0.5, 0.95, 0.999999, 1.0 - 1e-15)
# (methods, rule, a_n) of one batched call
SETTINGS = ((CI_METHODS, "centered", None), (("AJEL",), "centered", 3.0),
            (("AJEL",), "literal", None))
# samples of each batch scaled by a power of two, and those also run alone
SCALED = {8: 1000, 9: -1000}
ALONE = (0, 9)


def _record(result):
    if isinstance(result, PwmError):
        if isinstance(result, ConvergenceError) and isinstance(result.best, float):
            return [type(result).__name__, str(result), result.best.hex()]
        return [type(result).__name__, str(result)]
    return [result.lower.hex(), result.upper.hex(), result.point_estimate.hex(),
            result.endpoint_iterations]


def _samples(family: str, n: int) -> list:
    xs = [sample(DistSpec(family, 1.0), n, make_rng([FAMILIES.index(family), n, k]))
          for k in range(10)]
    for k, e in SCALED.items():
        xs[k] = np.ldexp(xs[k], e)
    return xs


def _results(family: str, n: int) -> dict:
    """Every case of one family and size, keyed by level, call and setting."""
    xs = _samples(family, n)
    out = {}
    for level in LEVELS:
        for methods, rule, a_n in SETTINGS:
            setting = f"{level!r} {rule} {a_n}"
            rows = confidence_intervals(xs, 1, level, methods, rule, a_n)
            out[f"{setting} batch"] = [[_record(ci) for ci in row] for row in rows]
            alone = []
            for k in ALONE:
                for method in methods:
                    try:
                        alone.append(_record(confidence_interval(xs[k], 1, level, method,
                                                                 rule, a_n)))
                    except PwmError as exc:
                        alone.append(_record(exc))
            out[f"{setting} alone"] = alone
    return out


@pytest.fixture(scope="module")
def pinned():
    return json.loads(DATA.read_text())


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("family", FAMILIES)
def test_intervals_are_the_pinned_bits(family, n, pinned):
    assert _results(family, n) == pinned[f"{family} {n}"]


if __name__ == "__main__":
    # one line per batch row or one-sample call
    lines = []
    for family in FAMILIES:
        for n in SIZES:
            cases = [f"{json.dumps(key)}: [\n" + ",\n".join(map(json.dumps, rows)) + "\n]"
                     for key, rows in _results(family, n).items()]
            lines.append(f'"{family} {n}": {{\n' + ",\n".join(cases) + "\n}")
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text("{\n" + ",\n".join(lines) + "\n}\n")
