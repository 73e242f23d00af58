"""Unit tests for the Verilog preprocessor."""

import pytest

from repro.utils.errors import VerilogSyntaxError
from repro.verilog.preprocessor import preprocess, strip_comments


class TestComments:
    def test_line_comment(self):
        assert strip_comments("a // hello\nb").split() == ["a", "b"]

    def test_block_comment(self):
        assert strip_comments("a /* x */ b").split() == ["a", "b"]

    def test_block_comment_preserves_lines(self):
        src = "a /* 1\n2\n3 */ b"
        assert strip_comments(src).count("\n") == src.count("\n")

    def test_unterminated_block(self):
        with pytest.raises(VerilogSyntaxError):
            strip_comments("a /* b")

    def test_unterminated_block_is_located(self):
        # Points at the opening `/*`; neither the `*/` inside the string
        # before it nor the `/*/` closes it.
        src = 'wire a; // x\n  wire b = "*/"; /*/ y\nwire c;'
        with pytest.raises(VerilogSyntaxError) as ei:
            preprocess(src, filename="top.v")
        assert ei.value.message == "unterminated block comment"
        assert (ei.value.filename, ei.value.line, ei.value.col) == ("top.v", 2, 18)
        assert str(ei.value).startswith("top.v:2:18: ")

    def test_comments_and_strings_mixed(self):
        src = 'a = "/* no */"; // c "\nb /* x\ny */ = "\\"//"; /**/c'
        assert strip_comments(src) == 'a = "/* no */"; \nb \n = "\\"//"; c'

    def test_comment_inside_string_kept(self):
        assert '"//x"' in strip_comments('a = "//x";')


class TestDefine:
    def test_simple_define(self):
        out = preprocess("`define W 8\nwire [`W-1:0] x;")
        assert "wire [8-1:0] x;" in out

    def test_define_default_value(self):
        out = preprocess("`define FLAG\n`ifdef FLAG\nyes\n`endif")
        assert "yes" in out

    def test_undef(self):
        out = preprocess("`define F\n`undef F\n`ifdef F\nyes\n`endif\nno")
        assert "yes" not in out
        assert "no" in out

    def test_undefined_macro_use(self):
        with pytest.raises(VerilogSyntaxError):
            preprocess("wire x = `NOPE;")

    def test_recursive_define_guard(self):
        with pytest.raises(VerilogSyntaxError):
            preprocess("`define A `B\n`define B `A\n`A")

    def test_external_defines(self):
        out = preprocess("wire [`W:0] x;", defines={"W": "7"})
        assert "wire [7:0] x;" in out

    def test_function_like_rejected(self):
        with pytest.raises(VerilogSyntaxError):
            preprocess("`define MAX(a,b) a")


class TestConditionals:
    def test_ifdef_else(self):
        out = preprocess("`ifdef X\na\n`else\nb\n`endif")
        assert "b" in out and "a" not in out.replace("b", "")

    def test_ifndef(self):
        out = preprocess("`ifndef X\na\n`endif")
        assert "a" in out

    def test_nested(self):
        src = "`define A\n`ifdef A\n`ifdef B\nx\n`else\ny\n`endif\n`endif"
        out = preprocess(src)
        assert "y" in out and "x" not in out

    def test_unbalanced_endif(self):
        with pytest.raises(VerilogSyntaxError):
            preprocess("`endif")

    def test_unterminated_ifdef(self):
        with pytest.raises(VerilogSyntaxError):
            preprocess("`ifdef A\nx")

    def test_define_inside_dead_branch_ignored(self):
        out = preprocess("`ifdef NO\n`define W 3\n`endif\n`ifdef W\nx\n`endif")
        assert "x" not in out


class TestMisc:
    def test_timescale_ignored(self):
        assert preprocess("`timescale 1ns/1ps\nmodule m; endmodule").strip().startswith(
            "module"
        ) or "module" in preprocess("`timescale 1ns/1ps\nmodule m; endmodule")

    def test_unknown_directive(self):
        with pytest.raises(VerilogSyntaxError):
            preprocess("`bogus")

    def test_line_numbers_preserved(self):
        src = "`define W 8\n\nmodule m;\nendmodule"
        out = preprocess(src)
        assert out.split("\n").index("module m;") == 2


class TestInclude:
    def test_include_resolves_from_dirs(self, tmp_path):
        inc = tmp_path / "defs.vh"
        inc.write_text("`define WIDTH 12\n")
        out = preprocess('`include "defs.vh"\nwire [`WIDTH-1:0] x;',
                         include_dirs=[str(tmp_path)])
        assert "wire [12-1:0] x;" in out

    def test_missing_include(self):
        with pytest.raises(VerilogSyntaxError):
            preprocess('`include "nope.vh"')

    def test_include_inside_dead_branch_skipped(self):
        out = preprocess('`ifdef NO\n`include "nope.vh"\n`endif\nok')
        assert "ok" in out
