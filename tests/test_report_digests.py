"""Simulation reports, pinned by the sha256 of their ``report.csv`` and
``report.md`` bytes.

Fifteen small configs, every experiment kind on exponential, lognormal and
normal populations (parameter 1; a power run tests against the same family
at parameter 1.5), each with r = 1 and 2, n = 8 and 50, 40 replications and
seed 3, run in one process.  The file ``data/report_digests.json`` holds two
digests per config, keyed ``"<kind> <family>"`` for ``report.csv`` and
``"<kind> <family> report.md"`` for ``report.md``, so a change that moves a
single byte of any report, an estimate, an interval end, a rejection or a
failure count, or a table of the markdown companion, fails here.  Printing
``repr`` of every value makes the csv digest as strict as the numbers.

The csv digests were written when the test was added and were the same at
the commit before it.  The report.md digests were added later, recorded
with the markdown writer as it was before it moved onto the shared table
formatter ``table_lines``.  Rewrite the file (only for a deliberate change
of results) with ``PYTHONPATH=src python tests/test_report_digests.py``,
which also prints each digest, and log the rewrite here.
"""

import functools
import hashlib
import json
from pathlib import Path

import pytest

from pwmjel import (
    KINDS,
    DistSpec,
    ExperimentConfig,
    run_experiment,
    write_report_csv,
    write_report_markdown,
)

DATA = Path(__file__).parent / "data" / "report_digests.json"
FAMILIES = ("exponential", "lognormal", "normal")
CONFIGS = [(kind, family) for kind in KINDS for family in FAMILIES]
# The key suffix and writer of each report file.
WRITERS = {"": write_report_csv, " report.md": write_report_markdown}


@functools.cache
def _report(kind: str, family: str):
    config = ExperimentConfig(kind, DistSpec(family, 1.0), (1, 2), (8, 50), 40, base_seed=3,
                              null_dist=DistSpec(family, 1.5) if kind == "power" else None)
    return run_experiment(config)


def _digest(kind: str, family: str, suffix: str, path: Path) -> str:
    WRITERS[suffix](_report(kind, family), path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def pinned():
    return json.loads(DATA.read_text())


@pytest.mark.parametrize("kind, family", CONFIGS)
def test_report_is_the_pinned_bytes(kind, family, pinned, tmp_path):
    assert _digest(kind, family, "", tmp_path / "report.csv") == pinned[f"{kind} {family}"]


@pytest.mark.parametrize("kind, family", CONFIGS)
def test_report_md_is_the_pinned_bytes(kind, family, pinned, tmp_path):
    digest = _digest(kind, family, " report.md", tmp_path / "report.md")
    assert digest == pinned[f"{kind} {family} report.md"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        digests = {f"{kind} {family}{suffix}": _digest(kind, family, suffix,
                                                       Path(scratch) / f"report{suffix}")
                   for suffix in WRITERS for kind, family in CONFIGS}
    for key, digest in digests.items():
        print(f"{digest}  {key}")
    DATA.write_text(json.dumps(digests, indent=1) + "\n")
