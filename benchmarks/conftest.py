"""Shared benchmark utilities.

Each benchmark module regenerates one of the paper's tables/figures
(see DESIGN.md's experiment index).  Timing comes from pytest-benchmark;
the reproduced rows/series are printed straight to the terminal via the
``report`` fixture so they appear in ``bench_output.txt`` even under
pytest's output capturing.

Every benchmark module also runs under an ambient telemetry tracer
(``module_telemetry`` below): spans from the instrumented engine layers
are written to ``benchmarks/artifacts/BENCH_<module>.jsonl`` plus a
``summarize()`` report in ``BENCH_<module>.json`` — see ``common.py``.
"""

import os
import sys

import pytest

from common import telemetry_session

# benchmarks reuse the test suite's reference implementations
# (``from tests.agenp.test_pdp_index import linear_evaluate``)
_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)


@pytest.fixture
def report(capsys):
    """Print experiment tables to the real terminal, bypassing capture."""

    def _print(*lines):
        with capsys.disabled():
            print()
            for line in lines:
                print(line)

    return _print


@pytest.fixture(scope="module", autouse=True)
def module_telemetry(request):
    """Trace each benchmark module into its own BENCH_* artifact pair."""
    name = request.module.__name__
    if name.startswith("bench_"):
        name = name[len("bench_"):]
    with telemetry_session(name) as tracer:
        yield tracer

