"""Unit tests for the Verilog parser."""

import pytest

from repro.utils.errors import UnsupportedFeatureError, VerilogSyntaxError
from repro.verilog import ast_nodes as A
from repro.verilog.parser import parse_source


def parse_module(src, name=None):
    unit = parse_source(src)
    return unit.modules[0] if name is None else unit.module(name)


def parse_expr(text):
    m = parse_module(f"module t(input wire [63:0] a, input wire [63:0] b, "
                     f"input wire [63:0] c); wire [63:0] y; assign y = {text}; endmodule")
    assigns = [i for i in m.items if isinstance(i, A.ContinuousAssign)]
    return assigns[-1].rhs


class TestModuleHeaders:
    def test_ansi_ports(self):
        m = parse_module(
            "module m(input wire clk, input wire [7:0] d, output reg [7:0] q);"
            " endmodule"
        )
        ports = m.ports()
        assert [p.name for p in ports] == ["clk", "d", "q"]
        assert ports[2].kind == "reg"
        assert ports[1].direction == "input"
        assert m.port_order == ["clk", "d", "q"]

    def test_non_ansi_ports(self):
        m = parse_module(
            "module m(a, b);\n input wire [3:0] a;\n output wire b;\n endmodule"
        )
        assert m.port_order == ["a", "b"]
        assert {p.name: p.direction for p in m.ports()} == {
            "a": "input",
            "b": "output",
        }

    def test_parameter_header(self):
        m = parse_module("module m #(parameter W = 8, D = 16)(input wire x); endmodule")
        params = m.params()
        assert [p.name for p in params] == ["W", "D"]

    def test_body_parameters(self):
        m = parse_module(
            "module m; parameter W = 4; localparam D = W * 2; endmodule"
        )
        params = m.params()
        assert params[0].local is False
        assert params[1].local is True

    def test_empty_portlist(self):
        m = parse_module("module m(); endmodule")
        assert m.port_order == []

    def test_multiple_modules(self):
        unit = parse_source("module a; endmodule module b; endmodule")
        assert [m.name for m in unit.modules] == ["a", "b"]

    def test_inout_rejected(self):
        with pytest.raises(UnsupportedFeatureError):
            parse_module("module m(inout wire x); endmodule")


class TestDeclarations:
    def test_wire_vector(self):
        m = parse_module("module m; wire [7:0] w; endmodule")
        d = [i for i in m.items if isinstance(i, A.NetDecl)][0]
        assert d.kind == "wire"
        assert d.rng is not None

    def test_reg_memory(self):
        m = parse_module("module m; reg [31:0] mem [0:255]; endmodule")
        d = [i for i in m.items if isinstance(i, A.NetDecl)][0]
        assert d.array is not None

    def test_multiple_names_one_decl(self):
        m = parse_module("module m; wire a, b, c; endmodule")
        assert len([i for i in m.items if isinstance(i, A.NetDecl)]) == 3

    def test_wire_with_initializer(self):
        m = parse_module("module m; wire [3:0] w = 4'd5; endmodule")
        assert any(isinstance(i, A.ContinuousAssign) for i in m.items)

    def test_integer_is_32bit_reg(self):
        m = parse_module("module m; integer i; endmodule")
        d = [i for i in m.items if isinstance(i, A.NetDecl)][0]
        assert d.kind == "reg"


class TestExpressions:
    def test_precedence_mul_over_add(self):
        e = parse_expr("a + b * c")
        assert isinstance(e, A.Binary) and e.op == "+"
        assert isinstance(e.right, A.Binary) and e.right.op == "*"

    def test_precedence_shift_below_add(self):
        e = parse_expr("a << b + c")
        assert e.op == "<<"
        assert isinstance(e.right, A.Binary) and e.right.op == "+"

    def test_precedence_and_or(self):
        e = parse_expr("a | b & c")
        assert e.op == "|"
        assert e.right.op == "&"

    def test_logical_lowest(self):
        e = parse_expr("a == b && c != a")
        assert e.op == "&&"

    def test_ternary_right_assoc(self):
        e = parse_expr("a ? b : c ? a : b")
        assert isinstance(e, A.Ternary)
        assert isinstance(e.other, A.Ternary)

    def test_unary_chain(self):
        e = parse_expr("~&a")
        assert isinstance(e, A.Unary) and e.op == "~&"

    def test_parentheses(self):
        e = parse_expr("(a + b) * c")
        assert e.op == "*"
        assert e.left.op == "+"

    def test_concat(self):
        e = parse_expr("{a, b, c}")
        assert isinstance(e, A.Concat)
        assert len(e.parts) == 3

    def test_replication(self):
        e = parse_expr("{4{a}}")
        assert isinstance(e, A.Repeat)

    def test_replication_of_concat(self):
        e = parse_expr("{2{a, b}}")
        assert isinstance(e, A.Repeat)
        assert isinstance(e.value, A.Concat)

    def test_bit_select(self):
        e = parse_expr("a[3]")
        assert isinstance(e, A.Index)

    def test_part_select(self):
        e = parse_expr("a[7:4]")
        assert isinstance(e, A.PartSelect)

    def test_indexed_part_select_up(self):
        e = parse_expr("a[b +: 8]")
        assert isinstance(e, A.IndexedPartSelect)
        assert e.descending is False

    def test_indexed_part_select_down(self):
        e = parse_expr("a[b -: 8]")
        assert e.descending is True

    def test_power_operator(self):
        e = parse_expr("a ** 2")
        assert e.op == "**"


class TestStatements:
    def _always(self, body):
        m = parse_module(
            "module m(input wire clk, input wire [7:0] d);\n"
            "reg [7:0] q, r;\n"
            f"always @(posedge clk) begin {body} end\nendmodule"
        )
        return [i for i in m.items if isinstance(i, A.Always)][0]

    def test_nonblocking(self):
        a = self._always("q <= d;")
        assert isinstance(a.body.stmts[0], A.NonBlockingAssign)
        assert a.is_sequential

    def test_blocking(self):
        a = self._always("q = d;")
        assert isinstance(a.body.stmts[0], A.BlockingAssign)

    def test_if_else_chain(self):
        a = self._always("if (d) q <= 0; else if (q) q <= 1; else q <= 2;")
        s = a.body.stmts[0]
        assert isinstance(s, A.If)
        assert isinstance(s.other, A.If)

    def test_case_with_default(self):
        a = self._always(
            "case (d) 8'd0: q <= 1; 8'd1, 8'd2: q <= 2; default: q <= 0; endcase"
        )
        c = a.body.stmts[0]
        assert isinstance(c, A.Case)
        assert len(c.items) == 3
        assert c.items[1].labels and len(c.items[1].labels) == 2
        assert c.items[2].labels == []

    def test_casez(self):
        a = self._always("casez (d) 8'b1???????: q <= 1; default: q <= 0; endcase")
        assert a.body.stmts[0].casez

    def test_comb_star(self):
        m = parse_module(
            "module m(input wire a, output reg y); always @* y = a; endmodule"
        )
        alw = [i for i in m.items if isinstance(i, A.Always)][0]
        assert not alw.is_sequential

    def test_comb_paren_star(self):
        m = parse_module(
            "module m(input wire a, output reg y); always @(*) y = a; endmodule"
        )
        alw = [i for i in m.items if isinstance(i, A.Always)][0]
        assert not alw.is_sequential

    def test_sensitivity_list_treated_as_comb(self):
        m = parse_module(
            "module m(input wire a, input wire b, output reg y);"
            " always @(a or b) y = a & b; endmodule"
        )
        alw = [i for i in m.items if isinstance(i, A.Always)][0]
        assert not alw.is_sequential

    def test_posedge_negedge_pair(self):
        m = parse_module(
            "module m(input wire clk, input wire rst_n, output reg q);"
            " always @(posedge clk or negedge rst_n) q <= 1; endmodule"
        )
        alw = [i for i in m.items if isinstance(i, A.Always)][0]
        assert len(alw.events) == 2

    def test_concat_lvalue(self):
        a = self._always("{q, r} <= d;")
        assert isinstance(a.body.stmts[0].lhs, A.Concat)

    def test_for_loop_parses(self):
        a = self._always("for (i = 0; i < 4; i = i + 1) q <= i;")
        s = a.body.stmts[0]
        assert isinstance(s, A.For)
        assert s.var == "i"

    def test_while_loop_rejected(self):
        with pytest.raises(UnsupportedFeatureError):
            self._always("while (q) q = q - 1;")


class TestInstances:
    def test_named_connections(self):
        unit = parse_source(
            "module sub(input wire a, output wire y); assign y = a; endmodule\n"
            "module top(input wire x, output wire z);\n"
            "  sub s0 (.a(x), .y(z));\nendmodule"
        )
        top = unit.module("top")
        inst = [i for i in top.items if isinstance(i, A.Instance)][0]
        assert inst.module == "sub"
        assert set(inst.connections) == {"a", "y"}

    def test_positional_connections(self):
        unit = parse_source(
            "module sub(input wire a, output wire y); assign y = a; endmodule\n"
            "module top(input wire x, output wire z); sub s0 (x, z); endmodule"
        )
        inst = [i for i in unit.module("top").items if isinstance(i, A.Instance)][0]
        assert inst.by_order is not None and len(inst.by_order) == 2

    def test_parameter_override(self):
        unit = parse_source(
            "module sub #(parameter W=1)(input wire [W-1:0] a); endmodule\n"
            "module top(input wire [7:0] x); sub #(.W(8)) s0 (.a(x)); endmodule"
        )
        inst = [i for i in unit.module("top").items if isinstance(i, A.Instance)][0]
        assert "W" in inst.param_overrides

    def test_unconnected_port(self):
        unit = parse_source(
            "module sub(input wire a, output wire y); assign y = a; endmodule\n"
            "module top(input wire x); sub s0 (.a(x), .y()); endmodule"
        )
        inst = [i for i in unit.module("top").items if isinstance(i, A.Instance)][0]
        assert inst.connections["y"] is None


class TestErrors:
    def test_missing_semicolon(self):
        with pytest.raises(VerilogSyntaxError):
            parse_source("module m(input wire a) endmodule")

    def test_missing_endmodule(self):
        with pytest.raises(VerilogSyntaxError):
            parse_source("module m(input wire a);")

    def test_initial_rejected(self):
        with pytest.raises(UnsupportedFeatureError):
            parse_source("module m; initial begin end endmodule")

    def test_generate_parses(self):
        unit = parse_source(
            "module m(input wire a);\n"
            "genvar i;\n"
            "generate for (i = 0; i < 2; i = i + 1) begin : g\n"
            "  wire w;\nend endgenerate\nendmodule"
        )
        gens = [x for x in unit.modules[0].items
                if isinstance(x, A.GenerateFor)]
        assert len(gens) == 1
        assert gens[0].label == "g"

    def test_error_mentions_location(self):
        with pytest.raises(VerilogSyntaxError) as ei:
            parse_source("module m(input wire a);\nassign = 1;\nendmodule")
        assert ":2:" in str(ei.value)


# -- precedence climbing must build the parent's trees ---------------------------


def _parse_with_oracle(text):
    """Parse with the parent commit's ``_parse_binary`` (one call per
    precedence level): the oracle the single-loop version must match."""
    from repro.verilog.lexer import Lexer, TokenKind
    from repro.verilog.parser import _BINARY_LEVELS, Parser
    from repro.verilog.preprocessor import preprocess

    tokens = list(Lexer(preprocess(text, None, (), "<input>"), "<input>").tokens())
    parser = Parser(tokens, "<input>")

    def parse_binary(level):
        if level >= len(_BINARY_LEVELS):
            return parser._parse_unary()
        ops = _BINARY_LEVELS[level]
        left = parse_binary(level + 1)
        while parser.peek().kind is TokenKind.OP and parser.peek().text in ops:
            op = parser.next().text
            left = A.Binary(op, left, parse_binary(level + 1))
        return left

    parser._parse_binary = parse_binary
    return parser.parse()


def _dump(e):
    """Structural dump of an expression (parenthesised prefix form)."""
    if isinstance(e, A.Number):
        return str(e.value)
    if isinstance(e, A.Ident):
        return e.name
    if isinstance(e, A.Unary):
        return f"({e.op}u {_dump(e.operand)})"
    if isinstance(e, A.Binary):
        return f"({e.op} {_dump(e.left)} {_dump(e.right)})"
    if isinstance(e, A.Ternary):
        return f"(? {_dump(e.cond)} {_dump(e.then)} {_dump(e.other)})"
    raise AssertionError(type(e).__name__)


class TestPrecedenceClimbing:
    @pytest.mark.parametrize("text,want", [
        ("a-b-c", "(- (- a b) c)"),
        ("a<<b+c", "(<< a (+ b c))"),
        ("a&b==c", "(& a (== b c))"),
        ("a**b**c", "(** (** a b) c)"),  # the subset parses ** left-assoc
        ("a?b:c?a:b", "(? a b (? c a b))"),
        ("a + -b * ~c", "(+ a (* (-u b) (~u c)))"),
        ("-a ** b", "(** (-u a) b)"),
        ("a || b && c | a ^ b & c", "(|| a (&& b (| c (^ a (& b c)))))"),
        ("a < b == c >= a", "(== (< a b) (>= c a))"),
        ("a * b / c % a", "(% (/ (* a b) c) a)"),
        ("a ~^ b ^~ c", "(^~ (~^ a b) c)"),
        ("a >>> b <<< c >> a", "(>> (<<< (>>> a b) c) a)"),
        ("a === b !== c", "(!== (=== a b) c)"),
        ("(a + b) * c", "(* (+ a b) c)"),
        ("a ? b + c : b - c", "(? a (+ b c) (- b c))"),
    ])
    def test_table(self, text, want):
        assert _dump(parse_expr(text)) == want

    @pytest.mark.parametrize("name,params", [
        ("counter", {}), ("riscv_mini", {}), ("spinal", {"taps": 8}),
        ("nvdla", {"pes": 4}), ("crypto", {"rounds": 4}),
    ])
    def test_bundled_designs_parse_to_the_parents_ast(self, name, params):
        from repro.designs import get_design

        text = get_design(name, **params).source
        # Dataclass equality is structural over the whole source unit.
        assert parse_source(text) == _parse_with_oracle(text)

    def test_every_bundled_design_is_covered(self):
        from repro.designs import list_designs

        assert sorted(list_designs()) == [
            "counter", "crypto", "nvdla", "riscv_mini", "spinal"]
