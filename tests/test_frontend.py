"""The front end reads the source once: exact counts and pins.

* symbolic execution shares subtrees instead of deep-copying them, and
  ``lower`` hands back trees (no node object reachable twice);
* one explicit-stack walk per expression;
* the one-regex lexer keeps every token, line and column;
* fused sources of the bundled designs are pinned, and riscv_mini (the
  one whose source changed) still matches the golden reference;
* ``import repro`` does not pull in the optional subsystems.
"""

import copy
import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro import RTLFlow
from repro.baselines.reference import ReferenceSimulator
from repro.designs import get_design, list_designs
from repro.designs.riscv_mini import program_image
from repro.elaborate.elaborator import elaborate
from repro.elaborate.symexec import lower
from repro.utils.errors import VerilogSyntaxError
from repro.verilog import ast_nodes as A
from repro.verilog.lexer import tokenize
from repro.verilog.parser import parse_source


# ---------------------------------------------------------------------------
# Exact counts
# ---------------------------------------------------------------------------


def _nvdla64():
    b = get_design("nvdla", pes=64)
    return b.source, b.top


def test_from_source_never_deep_copies(monkeypatch):
    calls = []
    real = copy.deepcopy

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(copy, "deepcopy", counting)
    RTLFlow.from_source(*_nvdla64())
    assert len(calls) == 0  # 99 K before subtrees were shared


def test_expression_walks_are_bounded(monkeypatch):
    calls = []
    real = A.walk_expr

    def counting(e):
        calls.append(1)
        return real(e)

    monkeypatch.setattr(A, "walk_expr", counting)
    RTLFlow.from_source(*_nvdla64())
    # 454 K generator entries before; one call per walked expression now.
    assert 0 < len(calls) <= 150_000


def test_walk_expr_is_preorder():
    e = A.Binary(
        "+",
        A.Ternary(A.Ident("c"), A.Index("m", A.Ident("i")), A.Number(1, None)),
        A.Concat([A.Ident("x"), A.PartSelect("y", A.Number(3, None), A.Number(0, None))]),
    )
    got = [A.op_type_name(n) for n in A.walk_expr(e)]
    assert got == [
        "bin:+", "mux", "varref", "bitsel", "varref", "const",
        "concat", "varref", "partsel", "const", "const",
    ]
    assert A.expr_reads(e) == ["c", "m", "i", "x", "y"]


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

LEX_SRC = (
    "module regx;\n"
    "\tassign y = 8'b1x?z_0101 <<< 2;\n"
    "  wire w = a[i +: 4] ^ b[7 -: 2] | 'hZ;\n"
    "endmodule\n"
)

# (kind, text, line, col, value, size, xz_mask); a tab is one column.
LEX_TOKENS = [
    ("KEYWORD", "module", 1, 1, 0, None, 0),
    ("IDENT", "regx", 1, 8, 0, None, 0),  # keyword prefix, not a keyword
    ("OP", ";", 1, 12, 0, None, 0),
    ("KEYWORD", "assign", 2, 2, 0, None, 0),
    ("IDENT", "y", 2, 9, 0, None, 0),
    ("OP", "=", 2, 11, 0, None, 0),
    ("NUMBER", "8'b1x?z_0101", 2, 13, 0b10000101, 8, 0b01110000),
    ("OP", "<<<", 2, 26, 0, None, 0),
    ("NUMBER", "2", 2, 30, 2, None, 0),
    ("OP", ";", 2, 31, 0, None, 0),
    ("KEYWORD", "wire", 3, 3, 0, None, 0),
    ("IDENT", "w", 3, 8, 0, None, 0),
    ("OP", "=", 3, 10, 0, None, 0),
    ("IDENT", "a", 3, 12, 0, None, 0),
    ("OP", "[", 3, 13, 0, None, 0),
    ("IDENT", "i", 3, 14, 0, None, 0),
    ("OP", "+:", 3, 16, 0, None, 0),
    ("NUMBER", "4", 3, 19, 4, None, 0),
    ("OP", "]", 3, 20, 0, None, 0),
    ("OP", "^", 3, 22, 0, None, 0),
    ("IDENT", "b", 3, 24, 0, None, 0),
    ("OP", "[", 3, 25, 0, None, 0),
    ("NUMBER", "7", 3, 26, 7, None, 0),
    ("OP", "-:", 3, 28, 0, None, 0),
    ("NUMBER", "2", 3, 31, 2, None, 0),
    ("OP", "]", 3, 32, 0, None, 0),
    ("OP", "|", 3, 34, 0, None, 0),
    ("NUMBER", "'hZ", 3, 36, 0, None, 0xF),
    ("OP", ";", 3, 39, 0, None, 0),
    ("KEYWORD", "endmodule", 4, 1, 0, None, 0),
    ("EOF", "", 5, 1, 0, None, 0),
]


def test_lexer_tokens_lines_and_columns():
    got = [
        (t.kind.name, t.text, t.line, t.col, t.value, t.size, t.xz_mask)
        for t in tokenize(LEX_SRC)
    ]
    assert got == LEX_TOKENS


def test_lexer_unexpected_character_is_located():
    with pytest.raises(VerilogSyntaxError) as ei:
        tokenize("module m;\n\twire \\w;\n", "t.v")
    assert ei.value.message == "unexpected character '\\\\'"
    assert (ei.value.filename, ei.value.line, ei.value.col) == ("t.v", 2, 7)


# ---------------------------------------------------------------------------
# Sharing inside lower, trees out of it
# ---------------------------------------------------------------------------

SHARED_ARMS_V = """
module shared(input clk, input s, input [1:0] op, input [7:0] a, input [7:0] b,
              output reg [7:0] y, output reg [7:0] z, output reg [7:0] q);
  reg [7:0] t;
  reg [7:0] mem [0:3];
  always @(*) begin
    t = a + b;
    if (s) y = t; else y = t;
    case (op)
      2'd0: z = t;
      2'd1: if (s) z = t ^ a; else z = t;
      default: z = t;
    endcase
  end
  always @(posedge clk) begin
    if (s) begin
      case (op)
        2'd0: q <= a & b;
        default: q <= a & b;
      endcase
      mem[op] <= a + b;
    end else begin
      q <= q + (a & b);
    end
  end
endmodule
"""


def _lowered(src, top):
    return lower(elaborate(parse_source(src), top))


def _roots(design):
    for ca in design.comb:
        yield ca.expr
    for blk in design.seq:
        for upd in blk.updates:
            yield upd.expr
        for mw in blk.mem_writes:
            yield from (mw.cond, mw.addr, mw.data)


def _assert_trees(design):
    """No node object is reachable twice across the whole design."""
    seen = set()
    for root in _roots(design):
        for node in A.walk_expr(root):
            assert id(node) not in seen, A.op_type_name(node)
            seen.add(id(node))


def test_lowered_design_holds_trees():
    _assert_trees(_lowered(SHARED_ARMS_V, "shared"))


def test_identical_arms_merge_to_one_value():
    # With the arms shared rather than copied, `s ? t : t` is `t`.
    design = _lowered(SHARED_ARMS_V, "shared")
    exprs = {ca.target: ca.expr for ca in design.comb}
    assert not isinstance(exprs["y"], A.Ternary)
    assert "s" not in A.expr_reads(exprs["y"])


@pytest.mark.parametrize("name", list_designs())
def test_bundled_designs_lower_to_trees(name):
    b = get_design(name)
    _assert_trees(_lowered(b.source, b.top))


# ---------------------------------------------------------------------------
# Fused-source pins
# ---------------------------------------------------------------------------

FUSED_SHA256 = {
    # Built from the RTL graph, no partition: the comb program is
    # `graph.levels` flattened, one seq program per clock domain.
    "counter": "404c1e0c0469bc9bce6559be348dfbfd76db7a57fbd434e4af884784fec68e49",
    "crypto": "2034b2a7c9d3c20927cc2a4cd0fbed7d9add867f318a96c0c9c821a916cdd09a",
    "nvdla": "05dd9285b34f2c1f8244bb5d6950479d0d77f9e16dbd03b5d4a47548b1692243",
    "spinal": "09a2fcf8f11804e2f7881cc9597200a7c990a085743d771948bddb601d55aa83",
    "riscv_mini": "2bbf253bafe17aad70539e811abdc9cfa0ae229228f472afa5a5d64cc1570b77",
}


@pytest.mark.parametrize("name", sorted(FUSED_SHA256))
def test_fused_source_pins(name):
    b = get_design(name)
    source = RTLFlow.from_source(b.source, b.top).compile().fused().source
    assert hashlib.sha256(source.encode()).hexdigest() == FUSED_SHA256[name]


@pytest.mark.parametrize("n", [1, 64, 65])
def test_riscv_mini_matches_reference(n):
    b = get_design("riscv_mini", program="sort8")
    flow = RTLFlow.from_source(b.source, b.top)
    cycles = 48
    stim = b.make_stimulus(n, cycles, seed=n)
    sim = flow.simulator(n)
    b.preload(sim)
    got = sim.run(stim, watch=b.watch, trace_every=1)
    image = program_image("sort8")
    for lane in range(n):
        ref = ReferenceSimulator(flow.graph)
        ref.load_memory("imem", image)
        for c, step in enumerate(stim.lane(lane)):
            ref.cycle(step)
            for w in b.watch:
                assert int(ref.get(w)) == int(got[w][c, lane]), (w, c, lane)
    assert len(np.unique(got["pc_out"])) > 8  # the program really branches


# ---------------------------------------------------------------------------
# Imports
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("stmt", ["import repro", "from repro import RTLFlow"])
def test_import_repro_stays_light(stmt):
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", f"import sys; {stmt}; print(sorted(sys.modules))"],
        capture_output=True, text=True, check=True, env=env,
    ).stdout
    loaded = set(eval(out))
    for heavy in ("repro.serve", "repro.cluster", "repro.verify", "repro.partition.mcmc"):
        assert heavy not in loaded, heavy
