"""Benchmark suite configuration.

Each ``bench_table*/bench_fig*`` module regenerates one table or figure of
the paper at "quick" scale (so ``pytest benchmarks/ --benchmark-only``
stays minutes, not hours) and asserts the qualitative property the paper
claims.  The full paper-style sweeps are produced by
``python -m benchmarks.harness --all --scale default``.
"""

import os
import sys

import pytest

# Make `import benchmarks.common` work when pytest is run from the repo root.
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

collect_ignore_glob = ["results/*"]


@pytest.fixture(autouse=True)
def _results_to_tmp(tmp_path, monkeypatch):
    """Exhibit tests write their tables under ``tmp_path``: only
    ``python -m benchmarks.harness`` updates the committed
    ``benchmarks/results/``.  Exhibit modules import ``benchmarks.common``
    at collection; suites that never load it are left alone."""
    common = sys.modules.get("benchmarks.common")
    if common is not None:
        monkeypatch.setattr(common, "RESULTS_DIR", str(tmp_path / "results"))
