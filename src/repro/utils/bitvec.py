"""Two-state bit-vector semantics shared by every engine in the package.

The paper's kernels are all integer arithmetic ("typical RTL simulation
workloads do not involve any floating-point operations").  This module
defines the single source of truth for how a Verilog operation behaves on
unsigned two-state values, both for

* scalar Python ints (used by the golden reference interpreter and the
  Verilator-like per-stimulus baseline), and
* numpy batch arrays (used by the RTLflow-style vectorized kernels, where
  the array axis is the stimulus axis — the analog of the CUDA thread id).

All values are kept *canonical*: masked to their declared width.  Arithmetic
is performed modulo 2**64 and truncated on assignment, mirroring Verilator's
two-state evaluation.
"""

from __future__ import annotations

import threading
from typing import Union

import numpy as np

from repro.utils.errors import WidthError

# The four fixed-width GPU memory pools of the paper (Fig. 7).
POOL_WIDTHS = (8, 16, 32, 64)
POOL_NAMES = ("var8", "var16", "var32", "var64")
POOL_DTYPES = (np.uint8, np.uint16, np.uint32, np.uint64)

MAX_WIDTH = 64  # pool element width cap (one limb)
MAX_TOTAL_WIDTH = 512  # wide signals span multiple var64 limbs

_U64 = np.uint64

Scalar = int
Batch = np.ndarray
Value = Union[int, np.ndarray]


def mask(width: int) -> int:
    """Bit mask with ``width`` low bits set (wide widths allowed)."""
    if width <= 0 or width > MAX_TOTAL_WIDTH:
        raise WidthError(
            f"width {width} out of supported range 1..{MAX_TOTAL_WIDTH}"
        )
    return (1 << width) - 1


def truncate(value: int, width: int) -> int:
    """Truncate a scalar to ``width`` bits (Verilog assignment semantics)."""
    return value & mask(width)


def pool_for_width(width: int) -> int:
    """Index of the smallest pool (var8..var64) that fits ``width`` bits.

    This is the allocation rule of §3.1.2: "a variable is stored into the
    smallest of the four types that fits the width of the variable".
    Wide signals (>64 bits) live in var64 as multiple consecutive limbs;
    the layout handles that case via :func:`repro.utils.widevec.limbs_for`.
    """
    if width <= 0:
        raise WidthError(f"width must be positive, got {width}")
    for i, w in enumerate(POOL_WIDTHS):
        if width <= w:
            return i
    if width <= MAX_TOTAL_WIDTH:
        return 3  # var64, multi-limb
    raise WidthError(
        f"signal width {width} exceeds the {MAX_TOTAL_WIDTH}-bit limit"
    )


def dtype_for_width(width: int) -> np.dtype:
    """Numpy dtype of the pool that stores a ``width``-bit variable."""
    return np.dtype(POOL_DTYPES[pool_for_width(width)])


# ---------------------------------------------------------------------------
# Scalar (single stimulus) operation semantics.
#
# Operands are canonical unsigned Python ints; results are NOT masked to a
# target width (assignment masking happens at the store), but they are
# always non-negative and bounded by 64-bit modular arithmetic where the
# operator can overflow.
# ---------------------------------------------------------------------------

_MOD64 = 1 << 64


def s_add(a: int, b: int) -> int:
    """``(a + b) mod 2**64`` (scalar)."""
    return (a + b) % _MOD64


def s_sub(a: int, b: int) -> int:
    """``(a - b) mod 2**64`` (scalar)."""
    return (a - b) % _MOD64


def s_mul(a: int, b: int) -> int:
    """``(a * b) mod 2**64`` (scalar)."""
    return (a * b) % _MOD64


def s_div(a: int, b: int) -> int:
    """Unsigned division; divide-by-zero yields 0 (two-state)."""
    # Division by zero yields X in 4-state Verilog; two-state engines
    # (Verilator) produce 0 for the quotient.  We match that.
    return 0 if b == 0 else a // b


def s_mod(a: int, b: int) -> int:
    """Unsigned modulo; modulo-by-zero yields 0 (two-state)."""
    return 0 if b == 0 else a % b


def s_shl(a: int, b: int) -> int:
    """Left shift; amounts >= 64 flush to zero."""
    # Shift amounts >= 64 flush to zero (result width is capped at 64).
    return 0 if b >= MAX_WIDTH else (a << b) % _MOD64


def s_shr(a: int, b: int) -> int:
    """Logical right shift; amounts >= 64 flush to zero."""
    return 0 if b >= MAX_WIDTH else a >> b


def s_pow(a: int, b: int) -> int:
    """``a ** b mod 2**64`` (scalar)."""
    # Exponentiation on unsigned operands, modulo 2**64.
    return pow(a, b, _MOD64)


def s_red_and(a: int, width: int) -> int:
    """Reduction AND of a ``width``-bit value (0/1)."""
    return 1 if a == mask(width) else 0


def s_red_or(a: int, width: int) -> int:
    """Reduction OR of a value (0/1)."""
    return 1 if a != 0 else 0


def s_red_xor(a: int, width: int) -> int:
    """Reduction XOR (parity) of a value (0/1)."""
    return bin(a).count("1") & 1


# ---------------------------------------------------------------------------
# Batch (vectorized, N-stimulus) operation semantics.
#
# All batch values are uint64 arrays of shape (N,).  The generated kernels
# cast pool slices up to uint64, combine, and mask back on store — this
# keeps overflow semantics identical to the scalar path.
# ---------------------------------------------------------------------------


# Optional divide-by-zero observer.  The two-state sentinel (result 0) is
# always produced regardless; when a sink is installed (the batch
# simulator does, per evaluation, when lane fault isolation is on) it
# receives the boolean zero-divisor mask so the offending lanes can be
# quarantined.  The sink is **thread-local**: the pipelined scheduler
# evaluates independent stimulus groups on concurrent threads, each with
# its own simulator, and a process-global sink would deliver one group's
# zero-divisor mask to another group's quarantine (and install/restore
# pairs on different threads would race).  ``None`` (the default) keeps
# the hot path a single getattr + test.
_div_fault_tls = threading.local()


def set_div_fault_sink(sink):
    """Install a divide-by-zero observer **for the calling thread**;
    returns the thread's previous one.

    ``sink(zero_mask)`` is called with the boolean ``divisor == 0`` mask
    whenever a batch division or modulo on this thread sees a zero
    divisor.  Pass ``None`` to uninstall.  Each thread has its own slot,
    so concurrent simulators (pipeline groups) never observe each
    other's faults.
    """
    prev = getattr(_div_fault_tls, "sink", None)
    _div_fault_tls.sink = sink
    return prev


def b_div(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batch unsigned division; divide-by-zero lanes yield 0."""
    zero = b == 0
    sink = getattr(_div_fault_tls, "sink", None)
    if sink is not None and zero.any():
        sink(zero)
    safe = np.where(zero, _U64(1), b)
    q = a // safe
    return np.where(zero, _U64(0), q)


def b_mod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batch unsigned modulo; modulo-by-zero lanes yield 0."""
    zero = b == 0
    sink = getattr(_div_fault_tls, "sink", None)
    if sink is not None and zero.any():
        sink(zero)
    safe = np.where(zero, _U64(1), b)
    r = a % safe
    return np.where(zero, _U64(0), r)


def b_shl(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batch left shift; amounts >= 64 flush to zero per lane."""
    sh = np.minimum(b, _U64(63))
    out = a << sh
    return np.where(b >= _U64(MAX_WIDTH), _U64(0), out)


def b_shr(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batch logical right shift; amounts >= 64 flush per lane."""
    sh = np.minimum(b, _U64(63))
    out = a >> sh
    return np.where(b >= _U64(MAX_WIDTH), _U64(0), out)


def b_pow(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise ``a ** b`` modulo 2**64 by square-and-multiply.

    Exponents in RTL are tiny in practice, but the loop is bounded by the
    64 bits of the exponent so the worst case is still constant.
    """
    result = np.ones_like(a)
    base = a.copy()
    exp = b.copy()
    for _ in range(64):
        if not exp.any():
            break
        odd = (exp & _U64(1)) != 0
        result = np.where(odd, result * base, result)
        base = base * base
        exp = exp >> _U64(1)
    return result


if hasattr(np, "bitwise_count"):

    def b_popcount(a: np.ndarray) -> np.ndarray:
        """Batch popcount (set bits per lane)."""
        return np.bitwise_count(a).astype(_U64)

else:  # pragma: no cover - numpy < 2.0 fallback

    def b_popcount(a: np.ndarray) -> np.ndarray:
        """Batch popcount (set bits per lane)."""
        v = a.astype(_U64, copy=True)
        count = np.zeros_like(v)
        for _ in range(64):
            count += v & _U64(1)
            v >>= _U64(1)
        return count


def b_red_and(a: np.ndarray, width: int) -> np.ndarray:
    """Batch reduction AND of ``width``-bit lanes (0/1)."""
    return (a == _U64(mask(width))).astype(_U64)


def b_red_or(a: np.ndarray, width: int) -> np.ndarray:
    """Batch reduction OR (0/1 per lane)."""
    return (a != 0).astype(_U64)


def b_red_xor(a: np.ndarray, width: int) -> np.ndarray:
    """Batch reduction XOR / parity (0/1 per lane)."""
    return b_popcount(a) & _U64(1)
