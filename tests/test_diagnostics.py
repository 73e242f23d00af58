"""Diagnostics-quality tests: failures must name the offending construct.

A production front end is judged by its error messages; these tests pin
the user-facing text for the common mistakes.
"""

import pytest

from repro import RTLFlow
from repro.utils.errors import (
    ElaborationError,
    ReproError,
    UnsupportedFeatureError,
    VerilogSyntaxError,
    WidthError,
)


def err(src, top="m"):
    with pytest.raises(ReproError) as ei:
        RTLFlow.from_source(src, top)
    return str(ei.value)


class TestSyntaxDiagnostics:
    def test_location_in_message(self):
        msg = err("module m(input wire a);\nassign = 1;\nendmodule")
        assert ":2:" in msg

    def test_unterminated_module(self):
        msg = err("module m(input wire a);")
        assert "endmodule" in msg or "expected" in msg

    def test_bad_literal_trailing_garbage(self):
        msg = err("module m; wire [3:0] x = 4'hZZQ; endmodule")
        assert "expected" in msg  # the stray token is pointed at


class TestUnsupportedDiagnostics:
    def test_initial_block_hint(self):
        msg = err("module m; initial begin end endmodule")
        assert "simulator API" in msg  # points at the supported alternative

    def test_casex_hint(self):
        msg = err(
            "module m(input wire [1:0] a, output reg y);\n"
            "always @* casex (a) 2'b1x: y = 1; default: y = 0; endcase\n"
            "endmodule"
        )
        assert "casez" in msg  # suggests the supported variant

    def test_while_hint(self):
        msg = err(
            "module m(input wire a, output reg y);\n"
            "always @* while (a) y = 0;\nendmodule"
        )
        assert "for" in msg  # names what IS supported

    def test_wide_multiply_names_width(self):
        # The rejection happens at kernel codegen, which runs when the
        # simulator's engine lowers the (lazily compiled) model.
        flow = RTLFlow.from_source(
            "module m(input wire [99:0] a, output wire [99:0] y);\n"
            "assign y = a * a;\nendmodule",
            "m",
        )
        with pytest.raises(UnsupportedFeatureError) as ei:
            flow.simulator(1)
        msg = str(ei.value)
        assert "64" in msg and "*" in msg


class TestElaborationDiagnostics:
    def test_unknown_module_names_instance(self):
        msg = err("module m; ghost g0 (); endmodule")
        assert "ghost" in msg and "g0" in msg

    def test_unknown_port_names_both(self):
        msg = err(
            "module sub(input wire a); endmodule\n"
            "module m(input wire x); sub s0 (.nope(x)); endmodule"
        )
        assert "nope" in msg and "sub" in msg

    def test_comb_loop_names_signals(self):
        msg = err(
            "module m(input wire a, output wire y);\n"
            "wire p, q;\nassign p = q ^ a;\nassign q = p | a;\n"
            "assign y = q;\nendmodule"
        )
        assert "loop" in msg
        assert "p" in msg and "q" in msg

    def test_multiple_drivers_names_signal(self):
        msg = err(
            "module m(input wire a, output wire y);\n"
            "assign y = a;\nassign y = ~a;\nendmodule"
        )
        assert "y" in msg and "driver" in msg

    def test_width_limit_names_signal(self):
        msg = err("module m(input wire [600:0] huge); endmodule")
        assert "huge" in msg and "512" in msg

    def test_memory_width_hint(self):
        msg = err("module m; reg [79:0] big [0:3]; endmodule")
        assert "parallel memories" in msg


class TestLocations:
    """Post-parse diagnostics carry file:line:col, not just prose."""

    def test_width_limit_locates_declaration(self):
        msg = err("module m;\nwire [600:0] huge;\nendmodule")
        assert ":2:" in msg

    def test_unknown_module_locates_instance(self):
        msg = err("module m;\n\n  ghost g0 ();\nendmodule")
        assert ":3:" in msg

    def test_duplicate_declaration_locates_second(self):
        msg = err("module m;\nwire x;\nwire x;\nendmodule")
        assert ":3:" in msg and "x" in msg

    def test_part_select_out_of_range_locates_signal(self):
        msg = err(
            "module m(input wire [3:0] a, output wire [3:0] y);\n"
            "assign y = a[7:4];\nendmodule"
        )
        assert ":1:" in msg and "a[7:4]" in msg

    def test_memory_width_locates_declaration(self):
        msg = err("module m;\nreg [79:0] big [0:3];\nendmodule")
        assert ":2:" in msg

    def test_custom_filename_in_message(self):
        from repro.utils.errors import ReproError

        with pytest.raises(ReproError) as ei:
            RTLFlow.from_source(
                "module m;\nwire [600:0] huge;\nendmodule", "m",
                filename="board.v",
            )
        assert "board.v:2:" in str(ei.value)

    def test_error_location_attributes(self):
        from repro.utils.errors import ReproError

        with pytest.raises(ReproError) as ei:
            RTLFlow.from_source("module m;\nwire x;\nwire x;\nendmodule", "m")
        exc = ei.value
        assert exc.has_location and exc.line == 3
        assert exc.message and not exc.message.startswith("<input>")


class TestRuntimeDiagnostics:
    def test_unknown_input_named(self):
        flow = RTLFlow.from_source(
            "module m(input wire a, output wire y); assign y = a; endmodule",
            "m",
        )
        sim = flow.simulator(n=2)
        with pytest.raises(ReproError) as ei:
            sim.set_input("b", 1)
        assert "b" in str(ei.value)

    def test_wrong_lane_count_mentions_sizes(self):
        import numpy as np

        flow = RTLFlow.from_source(
            "module m(input wire [3:0] a, output wire [3:0] y);"
            " assign y = a; endmodule",
            "m",
        )
        sim = flow.simulator(n=4)
        with pytest.raises(ReproError) as ei:
            sim.set_input("a", np.zeros(3, dtype=np.uint64))
        assert "4" in str(ei.value) and "3" in str(ei.value)


class TestDeepHierarchy:
    def test_recursion_guard(self):
        src = (
            "module a(input wire x); b u (.x(x)); endmodule\n"
            "module b(input wire x); a u (.x(x)); endmodule\n"
            "module m(input wire x); a u (.x(x)); endmodule"
        )
        msg = err(src)
        assert "deep" in msg or "recursive" in msg

    def test_sixty_levels_ok(self):
        mods = []
        for i in range(60):
            inner = f"l{i + 1} u (.x(x), .y(y));" if i < 59 else "assign y = ~x;"
            mods.append(
                f"module l{i}(input wire x, output wire y); {inner} endmodule"
            )
        src = "\n".join(mods)
        flow = RTLFlow.from_source(src, "l0")
        sim = flow.simulator(n=1)
        sim.set_input("x", 1)
        sim.evaluate()
        assert int(sim.get("y")[0]) == 0


class TestSignedRejection:
    def test_signed_port_rejected_with_hint(self):
        msg = err("module m(input wire signed [7:0] a); endmodule")
        assert "signed" in msg and "bias" in msg.lower() or "^ MSB" in msg

    def test_signed_net_rejected(self):
        with pytest.raises(UnsupportedFeatureError):
            RTLFlow.from_source("module m; reg signed [7:0] r; endmodule", "m")

    def test_signed_function_rejected(self):
        src = """
        module m(input wire [7:0] a, output wire [7:0] y);
            function signed [7:0] f(input [7:0] v); f = v; endfunction
            assign y = f(a);
        endmodule
        """
        with pytest.raises(UnsupportedFeatureError):
            RTLFlow.from_source(src, "m")
