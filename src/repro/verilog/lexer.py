"""Tokenizer for the supported Verilog subset."""

from __future__ import annotations

import re
from enum import Enum, auto
from typing import Iterator, List, NamedTuple, Optional

from repro.utils.errors import VerilogSyntaxError


class TokenKind(Enum):
    KEYWORD = auto()
    IDENT = auto()
    NUMBER = auto()
    OP = auto()
    EOF = auto()


KEYWORDS = frozenset(
    """
    module endmodule input output inout wire reg integer parameter localparam
    assign always initial begin end if else case casez casex endcase default
    posedge negedge or signed generate endgenerate genvar for function
    endfunction while repeat forever automatic
    """.split()
)

# Longest-match-first operator table.
OPERATORS = [
    "<<<", ">>>", "===", "!==", "**",
    "<=", ">=", "==", "!=", "&&", "||", "<<", ">>", "+:", "-:", "~&", "~|", "~^", "^~",
    "(", ")", "[", "]", "{", "}", ";", ":", ",", ".", "@", "#", "?", "=",
    "+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "<", ">",
]
_OP_RE = "|".join(re.escape(op) for op in OPERATORS)

_IDENT_RE = r"[A-Za-z_][A-Za-z0-9_$]*"
# Verilog numbers: optional size, base, digits — or a bare decimal.
_BASED_RE = r"(?P<size>\d+)?\s*'\s*[sS]?(?P<base>[bBoOdDhH])\s*(?P<digits>[0-9a-fA-FxXzZ_?]+)"
_DEC_RE = r"\d[\d_]*"

# One master pattern; the alternatives are tried in this order at each
# position, so a based literal wins over a bare decimal and an identifier.
_TOKEN_RE = re.compile(
    rf"(?P<nl>\n)|(?P<ws>[ \t\r]+)|(?P<based>{_BASED_RE})"
    rf"|(?P<ident>{_IDENT_RE})|(?P<dec>{_DEC_RE})|(?P<op>{_OP_RE})"
)

_BASE_RADIX = {"b": 2, "o": 8, "d": 10, "h": 16}


class Token(NamedTuple):
    """One token (an immutable tuple: a dataclass costs ~3x to build)."""

    kind: TokenKind
    text: str
    line: int
    col: int
    # For NUMBER tokens: parsed value and explicit size (None if unsized).
    value: int = 0
    size: Optional[int] = None
    # Bit positions that were written as x/z/? — kept so casez can treat
    # them as wildcards.  Two-state evaluation reads them as 0.
    xz_mask: int = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Token({self.kind.name}, {self.text!r}, {self.line}:{self.col})"


_BITS_PER_DIGIT = {2: 1, 8: 3, 16: 4}


def _parse_based(size_str: Optional[str], base: str, digits: str, line: int, col: int):
    radix = _BASE_RADIX[base.lower()]
    raw = digits.replace("_", "")
    # Two-state semantics: x/z/? digits read as 0 (Verilator's default),
    # but remember which bit positions they occupied for casez wildcards.
    xz_mask = 0
    if radix in _BITS_PER_DIGIT:
        bpd = _BITS_PER_DIGIT[radix]
        for pos, ch in enumerate(reversed(raw)):
            if ch in "xXzZ?":
                xz_mask |= ((1 << bpd) - 1) << (pos * bpd)
    cleaned = re.sub(r"[xXzZ?]", "0", raw)
    try:
        value = int(cleaned, radix) if cleaned else 0
    except ValueError:
        raise VerilogSyntaxError(f"bad {base}-base literal {digits!r}", line=line, col=col)
    size = int(size_str) if size_str else None
    if size is not None:
        if size <= 0:
            raise VerilogSyntaxError("literal size must be positive", line=line, col=col)
        value &= (1 << size) - 1
        xz_mask &= (1 << size) - 1
    return value, size, xz_mask


class Lexer:
    """Converts preprocessed source text into a token stream."""

    def __init__(self, text: str, filename: str = "<input>"):
        self.text = text
        self.filename = filename

    def tokens(self) -> Iterator[Token]:
        text = self.text
        match = _TOKEN_RE.match
        pos = 0
        line = 1
        line_start = 0
        n = len(text)
        while pos < n:
            m = match(text, pos)
            if m is None:
                raise VerilogSyntaxError(
                    f"unexpected character {text[pos]!r}", self.filename,
                    line, pos - line_start + 1,
                )
            kind = m.lastgroup
            col = pos - line_start + 1
            pos = m.end()
            if kind == "ws":
                continue
            if kind == "nl":
                line += 1
                line_start = pos
            elif kind == "ident":
                word = m.group()
                yield Token(
                    TokenKind.KEYWORD if word in KEYWORDS else TokenKind.IDENT,
                    word, line, col,
                )
            elif kind == "op":
                yield Token(TokenKind.OP, m.group(), line, col)
            elif kind == "dec":
                word = m.group()
                yield Token(TokenKind.NUMBER, word, line, col, int(word.replace("_", "")))
            else:
                value, size, xz = _parse_based(
                    m.group("size"), m.group("base"), m.group("digits"), line, col
                )
                yield Token(TokenKind.NUMBER, m.group(), line, col, value, size, xz)
        yield Token(TokenKind.EOF, "", line, 1)


def tokenize(text: str, filename: str = "<input>") -> List[Token]:
    """Tokenize ``text`` fully (convenience for tests)."""
    return list(Lexer(text, filename).tokens())
