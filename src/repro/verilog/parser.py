"""Recursive-descent parser for the supported Verilog subset.

Produces :mod:`repro.verilog.ast_nodes` trees.  Both ANSI-style
(``module m(input [3:0] a, output reg b);``) and non-ANSI headers are
accepted, as are named and positional instance connections and parameter
overrides.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.utils.errors import UnsupportedFeatureError, VerilogSyntaxError
from repro.verilog import ast_nodes as A
from repro.verilog.lexer import Lexer, Token, TokenKind
from repro.verilog.preprocessor import preprocess

# Binary operator precedence, low to high (Verilog-2001 Table 5-4).
_BINARY_LEVELS = [
    ["||"],
    ["&&"],
    ["|", "~|"],
    ["^", "~^", "^~"],
    ["&", "~&"],
    ["==", "!=", "===", "!=="],
    ["<", "<=", ">", ">="],
    ["<<", ">>", "<<<", ">>>"],
    ["+", "-"],
    ["*", "/", "%"],
    ["**"],
]

# ``{op: level}`` for precedence climbing (all binary operators are parsed
# left-associative, ``**`` included).
_BINARY_PREC = {
    op: level for level, ops in enumerate(_BINARY_LEVELS) for op in ops
}

_UNARY_OPS = {"~", "!", "-", "+", "&", "|", "^", "~&", "~|", "~^"}


_OP_OR_KEYWORD = (TokenKind.OP, TokenKind.KEYWORD)


class Parser:
    def __init__(self, tokens: List[Token], filename: str = "<input>"):
        self.toks = tokens
        self.pos = 0
        self.filename = filename

    # ---- token plumbing ---------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        # ``pos`` never passes the trailing EOF token (see :meth:`next`),
        # so only a real look-ahead needs clamping.
        if not ahead:
            return self.toks[self.pos]
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind is not TokenKind.EOF:
            self.pos += 1
        return t

    def at(self, text: str) -> bool:
        t = self.toks[self.pos]
        return t.text == text and t.kind in _OP_OR_KEYWORD

    def accept(self, text: str) -> bool:
        if self.at(text):
            self.next()
            return True
        return False

    def expect(self, text: str) -> Token:
        t = self.peek()
        if not self.at(text):
            raise VerilogSyntaxError(
                f"expected {text!r}, found {t.text!r}", self.filename, t.line, t.col
            )
        return self.next()

    def expect_ident(self) -> str:
        t = self.peek()
        if t.kind is not TokenKind.IDENT:
            raise VerilogSyntaxError(
                f"expected identifier, found {t.text!r}", self.filename, t.line, t.col
            )
        self.next()
        return t.text

    def expect_ident_tok(self) -> Token:
        """Like :meth:`expect_ident` but returns the whole token, for
        declaration sites that record ``line``/``col``."""
        t = self.peek()
        self.expect_ident()
        return t

    def error(self, msg: str) -> VerilogSyntaxError:
        t = self.peek()
        return VerilogSyntaxError(msg, self.filename, t.line, t.col)

    # ---- top level --------------------------------------------------------


    def _reject_signed(self) -> None:
        """Signed declarations change comparison/shift/extension semantics;
        silently treating them as unsigned would corrupt results, so they
        are rejected outright (use explicit bias-compare idioms instead —
        see repro.designs.riscv_mini for the pattern)."""
        if self.at("signed"):
            t = self.peek()
            raise UnsupportedFeatureError(
                f"{self.filename}:{t.line}: signed declarations are not "
                "supported (two-state unsigned semantics only); express "
                "signed comparisons explicitly, e.g. (a ^ MSB) < (b ^ MSB)"
            )

    def parse(self) -> A.SourceUnit:
        modules: List[A.Module] = []
        while self.peek().kind is not TokenKind.EOF:
            if self.at("module"):
                modules.append(self.parse_module())
            else:
                raise self.error(f"expected 'module', found {self.peek().text!r}")
        return A.SourceUnit(modules, filename=self.filename)

    def parse_module(self) -> A.Module:
        self.expect("module")
        name = self.expect_ident()
        items: List[A.ModuleItem] = []
        port_order: List[str] = []

        if self.accept("#"):  # module parameter port list  #(parameter W = 8, ...)
            self.expect("(")
            while not self.at(")"):
                self.accept("parameter")
                pname = self.expect_ident()
                self.expect("=")
                items.append(A.ParamDecl(pname, self.parse_expr()))
                if not self.accept(","):
                    break
            self.expect(")")

        if self.accept("("):
            port_order, port_items = self._parse_port_list()
            items.extend(port_items)
            self.expect(")")
        self.expect(";")

        while not self.at("endmodule"):
            items.extend(self.parse_module_item())
        self.expect("endmodule")
        return A.Module(name, port_order, items)

    def _parse_port_list(self) -> Tuple[List[str], List[A.ModuleItem]]:
        """Parse the parenthesized port list (ANSI or plain name list)."""
        order: List[str] = []
        items: List[A.ModuleItem] = []
        if self.at(")"):
            return order, items
        direction: Optional[str] = None
        kind = "wire"
        rng: Optional[A.Range] = None
        while True:
            if self.peek().text in ("input", "output", "inout"):
                direction = self.next().text
                if direction == "inout":
                    raise UnsupportedFeatureError("inout ports are not supported")
                kind = "reg" if self.accept("reg") else "wire"
                self.accept("wire")
                self._reject_signed()
                rng = self.parse_opt_range()
            ptok = self.expect_ident_tok()
            pname = ptok.text
            order.append(pname)
            if direction is not None:
                items.append(
                    A.PortDecl(pname, direction, kind, rng,
                               line=ptok.line, col=ptok.col)
                )
            if not self.accept(","):
                break
        return order, items

    # ---- module items -----------------------------------------------------

    def parse_module_item(self) -> List[A.ModuleItem]:
        t = self.peek()
        if t.text in ("input", "output"):
            return self._parse_port_decl()
        if t.text in ("wire", "reg", "integer"):
            return self._parse_net_decl()
        if t.text in ("parameter", "localparam"):
            return self._parse_param_decl()
        if t.text == "assign":
            return self._parse_assign()
        if t.text == "always":
            return [self._parse_always()]
        if t.text == "initial":
            raise UnsupportedFeatureError(
                "initial blocks are not supported; preload state via the simulator API"
            )
        if t.text == "function":
            return [self._parse_function()]
        if t.text == "genvar":
            self.next()
            names = [self.expect_ident()]
            while self.accept(","):
                names.append(self.expect_ident())
            self.expect(";")
            return [A.GenvarDecl(names)]
        if t.text == "generate":
            self.next()
            items: List[A.ModuleItem] = []
            while not self.at("endgenerate"):
                items.extend(self._parse_generate_item())
            self.expect("endgenerate")
            return items
        if t.text in ("for", "if"):
            # Verilog-2005: generate constructs without the generate keyword.
            return self._parse_generate_item()
        if t.kind is TokenKind.IDENT:
            return [self._parse_instance()]
        raise self.error(f"unexpected token {t.text!r} in module body")

    def parse_opt_range(self) -> Optional[A.Range]:
        if not self.at("["):
            return None
        self.expect("[")
        msb = self.parse_expr()
        self.expect(":")
        lsb = self.parse_expr()
        self.expect("]")
        return A.Range(msb, lsb)

    def _parse_port_decl(self) -> List[A.ModuleItem]:
        direction = self.next().text
        kind = "reg" if self.accept("reg") else "wire"
        self.accept("wire")
        self._reject_signed()
        rng = self.parse_opt_range()
        out: List[A.ModuleItem] = []
        while True:
            ptok = self.expect_ident_tok()
            out.append(A.PortDecl(ptok.text, direction, kind, rng,
                                  line=ptok.line, col=ptok.col))
            if not self.accept(","):
                break
        self.expect(";")
        return out

    def _parse_net_decl(self) -> List[A.ModuleItem]:
        kw = self.next().text
        if kw == "integer":
            kind, rng = "reg", A.Range(A.Number(31), A.Number(0))
        else:
            kind = kw
            self._reject_signed()
            rng = self.parse_opt_range()
        out: List[A.ModuleItem] = []
        while True:
            ntok = self.expect_ident_tok()
            name = ntok.text
            array = self.parse_opt_range()
            if self.accept("="):
                if kind != "wire":
                    raise UnsupportedFeatureError(
                        "reg initializers are not supported; use a reset",
                        filename=self.filename, line=ntok.line, col=ntok.col,
                    )
                rhs = self.parse_expr()
                out.append(A.NetDecl(name, kind, rng, array,
                                     line=ntok.line, col=ntok.col))
                out.append(A.ContinuousAssign(A.Ident(name), rhs))
            else:
                out.append(A.NetDecl(name, kind, rng, array,
                                     line=ntok.line, col=ntok.col))
            if not self.accept(","):
                break
        self.expect(";")
        return out

    def _parse_param_decl(self) -> List[A.ModuleItem]:
        local = self.next().text == "localparam"
        self.parse_opt_range()  # parameter ranges are accepted and ignored
        out: List[A.ModuleItem] = []
        while True:
            name = self.expect_ident()
            self.expect("=")
            out.append(A.ParamDecl(name, self.parse_expr(), local))
            if not self.accept(","):
                break
        self.expect(";")
        return out

    def _parse_assign(self) -> List[A.ModuleItem]:
        self.expect("assign")
        out: List[A.ModuleItem] = []
        while True:
            lhs = self.parse_lvalue()
            self.expect("=")
            out.append(A.ContinuousAssign(lhs, self.parse_expr()))
            if not self.accept(","):
                break
        self.expect(";")
        return out

    def _parse_always(self) -> A.Always:
        self.expect("always")
        self.expect("@")
        events: List[A.EdgeEvent] = []
        if self.accept("*"):
            pass
        else:
            self.expect("(")
            if self.accept("*"):
                self.expect(")")
            else:
                while True:
                    if self.peek().text in ("posedge", "negedge"):
                        edge = self.next().text
                        events.append(A.EdgeEvent(edge, self.expect_ident()))
                    else:
                        # Explicit comb sensitivity list: treat as always @*.
                        self.expect_ident()
                    if not (self.accept("or") or self.accept(",")):
                        break
                self.expect(")")
        body = self.parse_statement()
        return A.Always(events, body)

    def _parse_instance(self) -> A.Instance:
        mtok = self.expect_ident_tok()
        module = mtok.text
        param_overrides: Dict[str, A.Expr] = {}
        if self.accept("#"):
            self.expect("(")
            if self.at("."):
                while self.accept("."):
                    pname = self.expect_ident()
                    self.expect("(")
                    param_overrides[pname] = self.parse_expr()
                    self.expect(")")
                    self.accept(",")
            else:
                raise UnsupportedFeatureError(
                    "positional parameter overrides are not supported; use .NAME(value)"
                )
            self.expect(")")
        name = self.expect_ident()
        self.expect("(")
        connections: Dict[str, Optional[A.Expr]] = {}
        by_order: Optional[List[A.Expr]] = None
        if self.at("."):
            while self.accept("."):
                pname = self.expect_ident()
                self.expect("(")
                connections[pname] = None if self.at(")") else self.parse_expr()
                self.expect(")")
                if not self.accept(","):
                    break
        elif not self.at(")"):
            by_order = []
            while True:
                by_order.append(self.parse_expr())
                if not self.accept(","):
                    break
        self.expect(")")
        self.expect(";")
        return A.Instance(module, name, connections, param_overrides, by_order,
                          line=mtok.line, col=mtok.col)

    # ---- statements ---------------------------------------------------------

    def parse_statement(self) -> A.Stmt:
        if self.accept("begin"):
            if self.accept(":"):
                self.expect_ident()  # named block; name ignored
            stmts: List[A.Stmt] = []
            while not self.at("end"):
                stmts.append(self.parse_statement())
            self.expect("end")
            return A.Block(stmts)
        if self.accept("if"):
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            then = self.parse_statement()
            other = self.parse_statement() if self.accept("else") else None
            return A.If(cond, then, other)
        if self.at("case") or self.at("casez") or self.at("casex"):
            kw = self.next().text
            if kw == "casex":
                raise UnsupportedFeatureError("casex is not supported (use casez)")
            self.expect("(")
            subject = self.parse_expr()
            self.expect(")")
            items: List[A.CaseItem] = []
            while not self.at("endcase"):
                if self.accept("default"):
                    self.accept(":")
                    items.append(A.CaseItem([], self.parse_statement()))
                else:
                    labels = [self.parse_expr()]
                    while self.accept(","):
                        labels.append(self.parse_expr())
                    self.expect(":")
                    items.append(A.CaseItem(labels, self.parse_statement()))
            self.expect("endcase")
            return A.Case(subject, items, casez=(kw == "casez"))
        if self.accept(";"):
            return A.Block([])
        if self.at("for"):
            return self._parse_for()
        if self.at("while") or self.at("repeat") or self.at("forever"):
            raise UnsupportedFeatureError(
                f"{self.peek().text} loops are not supported (only "
                "constant-bounded for loops)"
            )
        # assignment statement
        lhs = self.parse_lvalue()
        if self.accept("="):
            rhs = self.parse_expr()
            self.expect(";")
            return A.BlockingAssign(lhs, rhs)
        if self.accept("<="):
            rhs = self.parse_expr()
            self.expect(";")
            return A.NonBlockingAssign(lhs, rhs)
        raise self.error("expected '=' or '<=' in assignment")

    def _parse_generate_item(self) -> List[A.ModuleItem]:
        """One item of a generate region: for / if / plain module item."""
        if self.at("for"):
            self.expect("for")
            self.expect("(")
            var = self.expect_ident()
            self.expect("=")
            init = self.parse_expr()
            self.expect(";")
            cond = self.parse_expr()
            self.expect(";")
            var2 = self.expect_ident()
            self.expect("=")
            step = self.parse_expr()
            self.expect(")")
            if var2 != var:
                raise UnsupportedFeatureError(
                    "generate-for update must assign the loop genvar"
                )
            label, items = self._parse_generate_block(require_label=True)
            return [A.GenerateFor(var, init, cond, step, label, items)]
        if self.at("if"):
            self.expect("if")
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            label, then_items = self._parse_generate_block(require_label=False)
            else_items: List[A.ModuleItem] = []
            if self.accept("else"):
                if self.at("if"):
                    else_items = self._parse_generate_item()
                else:
                    _, else_items = self._parse_generate_block(require_label=False)
            return [A.GenerateIf(cond, then_items, else_items, label)]
        return self.parse_module_item()

    def _parse_generate_block(self, require_label: bool):
        """``begin [: label] <items> end`` or a single generate item."""
        if self.accept("begin"):
            label = ""
            if self.accept(":"):
                label = self.expect_ident()
            if require_label and not label:
                raise UnsupportedFeatureError(
                    "generate-for blocks must be labelled (begin : name)"
                )
            items: List[A.ModuleItem] = []
            while not self.at("end"):
                items.extend(self._parse_generate_item())
            self.expect("end")
            return label, items
        if require_label:
            raise UnsupportedFeatureError(
                "generate-for requires a labelled begin/end block"
            )
        return "", self._parse_generate_item()

    def _parse_function(self) -> A.FuncDecl:
        """Parse a function declaration (classic or ANSI argument style)."""
        self.expect("function")
        self.accept("automatic")
        self._reject_signed()
        rng = self.parse_opt_range()
        name = self.expect_ident()
        inputs: List[Tuple[str, Optional[A.Range]]] = []
        locals_: List[Tuple[str, Optional[A.Range]]] = []
        if self.accept("("):  # ANSI-style arguments
            while not self.at(")"):
                self.expect("input")
                self.accept("wire")
                self._reject_signed()
                arng = self.parse_opt_range()
                inputs.append((self.expect_ident(), arng))
                if not self.accept(","):
                    break
            self.expect(")")
        self.expect(";")
        # Classic-style input/local declarations before the body.
        while True:
            if self.accept("input"):
                self.accept("wire")
                self._reject_signed()
                arng = self.parse_opt_range()
                while True:
                    inputs.append((self.expect_ident(), arng))
                    if not self.accept(","):
                        break
                self.expect(";")
            elif self.at("reg") or self.at("integer"):
                kw = self.next().text
                lrng = (
                    A.Range(A.Number(31), A.Number(0))
                    if kw == "integer"
                    else self.parse_opt_range()
                )
                while True:
                    locals_.append((self.expect_ident(), lrng))
                    if not self.accept(","):
                        break
                self.expect(";")
            else:
                break
        body = self.parse_statement()
        self.expect("endfunction")
        if not inputs:
            raise UnsupportedFeatureError(
                f"function {name!r} has no inputs; use a localparam instead"
            )
        return A.FuncDecl(name, rng, inputs, locals_, body)

    def _parse_for(self) -> A.For:
        """``for (i = a; i < b; i = i + c) body`` — constant-bounded only."""
        self.expect("for")
        self.expect("(")
        var = self.expect_ident()
        self.expect("=")
        init = self.parse_expr()
        self.expect(";")
        cond = self.parse_expr()
        self.expect(";")
        var2 = self.expect_ident()
        self.expect("=")
        step = self.parse_expr()
        self.expect(")")
        if var2 != var:
            raise UnsupportedFeatureError(
                f"for-loop update must assign the loop variable {var!r}, "
                f"not {var2!r}"
            )
        body = self.parse_statement()
        return A.For(var, init, cond, step, body)

    def parse_lvalue(self) -> A.LValue:
        if self.at("{"):
            self.expect("{")
            parts: List[A.Expr] = [self.parse_lvalue()]
            while self.accept(","):
                parts.append(self.parse_lvalue())
            self.expect("}")
            return A.Concat(parts)
        name = self.expect_ident()
        return self._parse_select_suffix(name)

    def _parse_scoped_ident(self, name: str) -> str:
        """Extend ``name`` with hierarchical scope segments.

        Generate-for blocks expose their declarations as ``label[i].name``
        (with a literal index); plain dotted paths are also folded so
        expressions can reference scoped nets.
        """
        while True:
            if self.at("."):
                self.next()
                name += "." + self.expect_ident()
                continue
            # label[3].net — only a literal index followed by '.' is a
            # scope segment; anything else is a real select.
            if (
                self.at("[")
                and self.peek(1).kind is TokenKind.NUMBER
                and self.peek(2).text == "]"
                and self.peek(3).text == "."
            ):
                self.next()  # [
                idx = self.next()  # number
                self.next()  # ]
                self.next()  # .
                name += f"[{idx.value}]." + self.expect_ident()
                continue
            return name

    def _parse_select_suffix(self, name: str) -> A.Expr:
        """Parse ``name``, ``name[i]``, ``name[m:l]``, ``name[s +: w]``,
        and memory-bit combinations like ``name[i][j]``."""
        name = self._parse_scoped_ident(name)
        if not self.at("["):
            return A.Ident(name)
        self.expect("[")
        first = self.parse_expr()
        if self.accept(":"):
            lsb = self.parse_expr()
            self.expect("]")
            return A.PartSelect(name, first, lsb)
        if self.accept("+:"):
            w = self.parse_expr()
            self.expect("]")
            return A.IndexedPartSelect(name, first, w, descending=False)
        if self.accept("-:"):
            w = self.parse_expr()
            self.expect("]")
            return A.IndexedPartSelect(name, first, w, descending=True)
        self.expect("]")
        node: A.Expr = A.Index(name, first)
        if self.at("["):
            raise UnsupportedFeatureError(
                "chained selects (e.g. mem[i][j]) are not supported; "
                "read the element into a wire first"
            )
        return node

    # ---- expressions ----------------------------------------------------------

    def parse_expr(self) -> A.Expr:
        return self._parse_ternary()

    def _parse_ternary(self) -> A.Expr:
        cond = self._parse_binary(0)
        if self.accept("?"):
            then = self._parse_ternary()
            self.expect(":")
            other = self._parse_ternary()
            return A.Ternary(cond, then, other)
        return cond

    def _parse_binary(self, min_level: int) -> A.Expr:
        """Precedence climbing: one loop per operand instead of one call
        per precedence level."""
        left = self._parse_unary()
        toks = self.toks
        while True:
            t = toks[self.pos]
            if t.kind is not TokenKind.OP:
                return left
            level = _BINARY_PREC.get(t.text)
            if level is None or level < min_level:
                return left
            self.pos += 1
            left = A.Binary(t.text, left, self._parse_binary(level + 1))

    def _parse_unary(self) -> A.Expr:
        t = self.peek()
        if t.kind is TokenKind.OP and t.text in _UNARY_OPS:
            self.next()
            return A.Unary(t.text, self._parse_unary())
        return self._parse_primary()

    def _parse_primary(self) -> A.Expr:
        t = self.peek()
        if t.kind is TokenKind.NUMBER:
            self.next()
            return A.Number(t.value, t.size, t.xz_mask)
        if self.accept("("):
            e = self.parse_expr()
            self.expect(")")
            return e
        if self.at("{"):
            self.expect("{")
            first = self.parse_expr()
            if self.at("{"):
                # replication: { count { value } }
                self.expect("{")
                value = self.parse_expr()
                rest: List[A.Expr] = [value]
                while self.accept(","):
                    rest.append(self.parse_expr())
                self.expect("}")
                self.expect("}")
                inner = rest[0] if len(rest) == 1 else A.Concat(rest)
                return A.Repeat(first, inner)
            parts = [first]
            while self.accept(","):
                parts.append(self.parse_expr())
            self.expect("}")
            return A.Concat(parts)
        if t.kind is TokenKind.IDENT:
            if t.text.startswith("$"):
                raise UnsupportedFeatureError(f"system function {t.text} is not supported")
            self.next()
            if self.at("("):  # user-defined function call
                self.expect("(")
                args: List[A.Expr] = []
                if not self.at(")"):
                    while True:
                        args.append(self.parse_expr())
                        if not self.accept(","):
                            break
                self.expect(")")
                return A.FuncCall(t.text, args)
            return self._parse_select_suffix(t.text)
        raise self.error(f"unexpected token {t.text!r} in expression")


def parse_source(
    text: str,
    filename: str = "<input>",
    defines: Optional[Dict[str, str]] = None,
    include_dirs=(),
) -> A.SourceUnit:
    """Preprocess, lex and parse Verilog source text."""
    expanded = preprocess(text, defines, include_dirs, filename)
    tokens = list(Lexer(expanded, filename).tokens())
    return Parser(tokens, filename).parse()
