"""Table 1: transpilation statistics and speed.

Regenerates the paper's transpiled-code comparison (LOC, cyclomatic
complexity per function, token counts, transpile time) for the three
bundled designs, and benchmarks the RTLflow transpile path itself.
"""

import pytest

from benchmarks.common import load_design
from benchmarks.harness import run_table1
from repro.analysis.metrics import code_metrics, transpilation_row
from repro.core.codegen import KernelCodegen
from repro.partition.merge import partition


@pytest.mark.parametrize("name,params", [
    ("riscv_mini", {}),
    ("spinal", {"taps": 4}),
    ("nvdla", {"pes": 4}),
])
def test_transpile_speed(benchmark, name, params):
    """How fast is kernel code transpilation (partition + codegen + compile)?"""
    prep = load_design(name, **params)
    graph = prep.graph

    def transpile_once():
        tg = partition(graph)
        return KernelCodegen(tg).compile()

    model = benchmark.pedantic(transpile_once, rounds=3, iterations=1)
    assert model.task_fns


def test_table1_row_properties():
    """The paper's Table 1 directional facts hold for every design."""
    for name, params in [("riscv_mini", {}), ("spinal", {"taps": 4}),
                         ("nvdla", {"pes": 4})]:
        prep = load_design(name, **params)
        row = transpilation_row(prep.graph)
        v, f = row["verilator"], row["rtlflow"]
        # RTLflow spends more tokens per line (explicit index arithmetic on
        # every access — the paper: 3.2M -> 10.4M tokens on NVDLA).  The
        # module totals are about level here: the 2x this row used to show
        # was the inlined second copy of every task body, deleted with the
        # `graph-inlined` engine.
        assert f.tokens / f.loc > v.tokens / v.loc, name
        # ... but *lower* cyclomatic complexity per function: control flow
        # becomes straight-line vector selects (paper: 16.4 -> 4.8 on NVDLA).
        assert f.cc_avg < v.cc_avg, name
        # And both transpile in seconds, not minutes, at this scale.
        assert v.transpile_seconds < 30
        assert f.transpile_seconds < 30


def test_code_metrics_unit():
    src = "def f(x):\n    return 1 if x else 2\n\ndef g():\n    return 0\n"
    m = code_metrics(src)
    assert m.functions == 2
    assert m.cc_avg == pytest.approx(1.5)
    assert m.loc == 4


def test_table1_harness(capsys):
    out = run_table1("quick")
    assert "Table 1" in out
    assert "riscv_mini" in out
