r"""A minimal Verilog preprocessor.

Supports the directives the bundled designs use:

* ``//`` and ``/* */`` comments (stripped, newlines preserved so that
  diagnostics keep their line numbers),
* ``\`define NAME value`` (object-like macros only, no arguments),
* ``\`undef NAME``,
* ``\`ifdef`` / ``\`ifndef`` / ``\`else`` / ``\`endif``,
* macro expansion ``\`NAME`` (recursive, with a depth guard),
* ``\`timescale`` and ``\`default_nettype`` are accepted and ignored.

``\`include`` is resolved against an optional ``include_dirs`` search list.
"""

from __future__ import annotations

import os
import re
from typing import Dict, List, Optional, Sequence

from repro.utils.errors import VerilogSyntaxError

_DIRECTIVE_RE = re.compile(r"^\s*`(\w+)\s*(.*)$")
_MACRO_USE_RE = re.compile(r"`(\w+)")
_MAX_EXPANSION_DEPTH = 32


# A line comment, a block comment (just ``/*`` when it never closes) or a
# string literal, which shields comment markers inside it.  Scanning left
# to right, the leftmost alternative wins, so this is exactly a
# character-by-character scan.
_COMMENT_RE = re.compile(r'//[^\n]*|/\*(?:.*?\*/)?|"(?:[^"\\]|\\.)*"?', re.S)


def strip_comments(text: str, filename: str = "<input>") -> str:
    """Remove ``//`` and ``/* */`` comments, preserving line structure."""

    def repl(m: re.Match) -> str:
        s = m.group()
        if s[0] == '"':
            return s
        if s[1] == "/":
            return ""
        if len(s) == 2:
            at = m.start()
            line_start = text.rfind("\n", 0, at) + 1
            raise VerilogSyntaxError(
                "unterminated block comment", filename,
                text.count("\n", 0, at) + 1, at - line_start + 1,
            )
        # keep embedded newlines so line numbers survive
        return "\n" * s.count("\n")

    return _COMMENT_RE.sub(repl, text)


def _expand_macros(line: str, defines: Dict[str, str], lineno: int, depth: int = 0) -> str:
    if depth > _MAX_EXPANSION_DEPTH:
        raise VerilogSyntaxError("macro expansion too deep (recursive `define?)", line=lineno)

    def repl(m: re.Match) -> str:
        name = m.group(1)
        if name in defines:
            return defines[name]
        raise VerilogSyntaxError(f"undefined macro `{name}", line=lineno)

    new = _MACRO_USE_RE.sub(repl, line)
    if "`" in new:
        return _expand_macros(new, defines, lineno, depth + 1)
    return new


def preprocess(
    text: str,
    defines: Optional[Dict[str, str]] = None,
    include_dirs: Sequence[str] = (),
    filename: str = "<input>",
) -> str:
    """Run the preprocessor over ``text`` and return expanded source."""
    # The defines table is shared with included files (a `define made
    # inside an include is visible to the includer, as in real tools).
    shared = dict(defines or {})
    return _preprocess_shared(text, shared, include_dirs, filename)


def _preprocess_shared(
    text: str,
    defines: Dict[str, str],
    include_dirs: Sequence[str],
    filename: str,
) -> str:
    """Preprocess with a *shared* (mutated in place) defines table."""
    out: List[str] = []
    # Stack of (condition_active, any_branch_taken) for `ifdef nesting.
    cond_stack: List[List[bool]] = []

    def active() -> bool:
        return all(frame[0] for frame in cond_stack)

    for lineno, raw in enumerate(strip_comments(text, filename).split("\n"), start=1):
        m = _DIRECTIVE_RE.match(raw)
        if m:
            directive, rest = m.group(1), m.group(2).strip()
            if directive == "define":
                if active():
                    parts = rest.split(None, 1)
                    if not parts:
                        raise VerilogSyntaxError("`define needs a name", filename, lineno)
                    if "(" in parts[0]:
                        raise VerilogSyntaxError(
                            "function-like `define is not supported", filename, lineno
                        )
                    defines[parts[0]] = parts[1] if len(parts) > 1 else "1"
                out.append("")
                continue
            if directive == "undef":
                if active():
                    defines.pop(rest, None)
                out.append("")
                continue
            if directive in ("ifdef", "ifndef"):
                present = rest.split()[0] in defines if rest else False
                take = present if directive == "ifdef" else not present
                cond_stack.append([take, take])
                out.append("")
                continue
            if directive == "else":
                if not cond_stack:
                    raise VerilogSyntaxError("`else without `ifdef", filename, lineno)
                frame = cond_stack[-1]
                frame[0] = not frame[1]
                frame[1] = True
                out.append("")
                continue
            if directive == "endif":
                if not cond_stack:
                    raise VerilogSyntaxError("`endif without `ifdef", filename, lineno)
                cond_stack.pop()
                out.append("")
                continue
            if directive == "include":
                if active():
                    name = rest.strip().strip('"')
                    for d in list(include_dirs) + ["."]:
                        path = os.path.join(d, name)
                        if os.path.exists(path):
                            with open(path, "r", encoding="utf-8") as fh:
                                out.append(
                                    _preprocess_shared(
                                        fh.read(), defines, include_dirs, path
                                    )
                                )
                            break
                    else:
                        raise VerilogSyntaxError(
                            f"include file {name!r} not found", filename, lineno
                        )
                else:
                    out.append("")
                continue
            if directive in ("timescale", "default_nettype", "resetall"):
                out.append("")
                continue
            # Unknown directive in active code is an error; in dead code, skip.
            if active():
                raise VerilogSyntaxError(f"unknown directive `{directive}", filename, lineno)
            out.append("")
            continue

        if not active():
            out.append("")
            continue
        out.append(_expand_macros(raw, defines, lineno) if "`" in raw else raw)

    if cond_stack:
        raise VerilogSyntaxError("unterminated `ifdef", filename)
    return "\n".join(out)
