"""Finite Taylor series of the nonlinearity: V(x,z) = sum_{k=2..K} V_k(x) z^k / k!.

The series starts at k = 2, so V(x,0) and its z-derivative at 0 vanish by
construction. Coefficient fields live on the computation grid.
"""

from __future__ import annotations

import ast
import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import Grid2D, check_field


@dataclass(frozen=True)
class PotentialSeries:
    """Coefficient fields V_k for k = 2..kmax (coeffs[k-2] stores V_k)."""

    kmax: int
    coeffs: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if self.kmax < 2:
            raise ValueError("series must have kmax >= 2")
        if len(self.coeffs) != self.kmax - 1:
            raise ValueError("need one coefficient field per k = 2..kmax")
        size = self.coeffs[0].shape
        for a in self.coeffs:
            if a.shape != size or not np.all(np.isfinite(a)):
                raise ValueError("coefficient fields must share the grid and be finite")
            a.flags.writeable = False

    @classmethod
    def zero(cls, grid: Grid2D) -> "PotentialSeries":
        return cls(2, (np.zeros(grid.num_nodes),))

    @classmethod
    def from_coefficients(cls, grid: Grid2D, fields: dict[int, np.ndarray]) -> "PotentialSeries":
        """Build a series from {k: V_k field}; missing orders are zero."""
        if not fields:
            return cls.zero(grid)
        kmax = max(fields)
        if min(fields) < 2:
            raise ValueError("coefficient orders start at k = 2")
        coeffs = []
        for k in range(2, kmax + 1):
            a = fields.get(k)
            coeffs.append(check_field(a, grid).copy() if a is not None
                          else np.zeros(grid.num_nodes))
        return cls(kmax, tuple(coeffs))

    def with_coefficient(self, k: int, a: np.ndarray) -> "PotentialSeries":
        """Return a copy with V_k replaced (extending kmax if needed)."""
        if k < 2:
            raise ValueError("coefficient orders start at k = 2")
        size = self.coeffs[0].size
        fields = [c.copy() for c in self.coeffs]
        while len(fields) < k - 1:
            fields.append(np.zeros(size))
        fields[k - 2] = np.asarray(a, dtype=float).copy()
        return PotentialSeries(max(self.kmax, k), tuple(fields))

    def coefficient(self, k: int) -> np.ndarray:
        """V_k as a field; zero beyond the truncation order."""
        if k < 2:
            raise ValueError("series has no coefficients below k = 2")
        if k > self.kmax:
            return np.zeros_like(self.coeffs[0])
        return self.coeffs[k - 2]

    @cached_property
    def _interior_factors(self) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
        """V_k/k! and V_k/(k-1)! on the interior nodes, k from kmax down to 2,
        as read-only (n-1, n-1) arrays; computed once per series."""
        side = math.isqrt(self.coeffs[0].size)
        value, slope = [], []
        for k in range(self.kmax, 1, -1):
            inner = self.coeffs[k - 2].reshape(side, side)[1:-1, 1:-1]
            for out, scale in ((value, math.factorial(k)), (slope, math.factorial(k - 1))):
                a = inner / scale
                a.flags.writeable = False
                out.append(a)
        return tuple(value), tuple(slope)

    def interior_value(self, U: np.ndarray) -> np.ndarray:
        """V(x, U(x)) on the interior nodes, for the (n-1, n-1) array U of
        interior values; Horner in z from the highest order down."""
        acc = _horner(U, self._interior_factors[0])
        acc *= U  # series starts at z^2
        return acc

    def interior_slope(self, U: np.ndarray) -> np.ndarray:
        """d/dz V(x, z) at z = U(x) on the interior nodes, for the (n-1, n-1)
        array U of interior values."""
        return _horner(U, self._interior_factors[1])

    @property
    def is_zero(self) -> bool:
        return all(not a.any() for a in self.coeffs)


def _horner(z: np.ndarray, factors) -> np.ndarray:
    """((a_0 z + a_1) z + ... + a_last) z for the factor fields a_i, in a
    fresh array."""
    acc = factors[0] * z
    for a in factors[1:]:
        acc += a
        acc *= z
    return acc


# expression vocabulary for ground-truth coefficients in experiment configs
_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv, ast.Pow: operator.pow}
_UNARY = {ast.UAdd: operator.pos, ast.USub: operator.neg}


def sample_expression(expr: str, grid: Grid2D) -> np.ndarray:
    """Sample a closed-form coefficient expression onto the grid.

    Vocabulary: numeric literals (evaluated as floats), x, y, pi, the binary
    operators + - * / **, unary + and -, parentheses, and one-argument
    sin, cos and exp. Anything else, and any arithmetic that overflows or
    leaves a non-finite value, raises ValueError.
    """
    x, y = grid.node_coords()
    names = {"x": x, "y": y, "pi": np.pi}

    def walk(node: ast.AST):
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            return float(node.value)
        if isinstance(node, ast.Name) and node.id in names:
            return names[node.id]
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
            return _BINARY[type(node.op)](walk(node.left), walk(node.right))
        if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY:
            return _UNARY[type(node.op)](walk(node.operand))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in _FUNCTIONS and len(node.args) == 1 and not node.keywords):
            return _FUNCTIONS[node.func.id](walk(node.args[0]))
        raise ValueError(f"expression {expr!r} leaves the vocabulary at {ast.unparse(node)!r}")

    try:
        val = walk(ast.parse(expr, mode="eval").body)
    except (SyntaxError, ArithmeticError, RecursionError, MemoryError) as exc:
        raise ValueError(f"cannot evaluate expression {expr!r}: {exc}") from exc
    out = np.broadcast_to(np.asarray(val, dtype=float), (grid.num_nodes,)).copy()
    return check_field(out, grid)
