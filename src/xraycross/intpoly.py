"""Integer-coefficient polynomials in one variable.

This is the value ring for Poincare polynomials: exact integer
coefficients, evaluation over Z and over the Gaussian integers.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class IntPolynomial:
    """Polynomial sum(coeffs[k] * t^k) with trailing zeros stripped."""

    coeffs: tuple[int, ...] = ()

    def __post_init__(self):
        cs = tuple(self.coeffs)
        if not all(isinstance(c, int) for c in cs):
            raise TypeError("IntPolynomial coefficients must be ints")
        object.__setattr__(self, "coeffs", _strip(cs))

    @classmethod
    def _of(cls, coeffs: list[int] | tuple[int, ...]) -> "IntPolynomial":
        """A result built from int coefficients already: skips the type
        check in __post_init__, only trailing zeros are stripped."""
        out = object.__new__(cls)
        object.__setattr__(out, "coeffs", _strip(tuple(coeffs)))
        return out

    @classmethod
    def zero(cls) -> "IntPolynomial":
        return cls(())

    @classmethod
    def one(cls) -> "IntPolynomial":
        return cls((1,))

    @classmethod
    def monomial(cls, degree: int, coeff: int = 1) -> "IntPolynomial":
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        return cls((0,) * degree + (coeff,))

    @property
    def degree(self) -> int:
        # zero polynomial reports degree -1
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        long, short = self.coeffs, other.coeffs
        if len(long) < len(short):
            long, short = short, long
        out = list(long)
        for k, c in enumerate(short):
            out[k] += c
        return IntPolynomial._of(out)

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        out = list(self.coeffs) + [0] * (len(other.coeffs) - len(self.coeffs))
        for k, c in enumerate(other.coeffs):
            out[k] -= c
        return IntPolynomial._of(out)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial._of(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial._of(tuple(c * other for c in self.coeffs))
        if isinstance(other, IntPolynomial):
            if not self.coeffs or not other.coeffs:
                return IntPolynomial.zero()
            out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return IntPolynomial._of(out)
        return NotImplemented

    __rmul__ = __mul__

    def __call__(self, t: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def eval_gaussian(self, re: int, im: int) -> tuple[int, int]:
        """Evaluate at the Gaussian integer re + im*i; returns (real, imag)."""
        ar, ai = 0, 0
        for c in reversed(self.coeffs):
            ar, ai = ar * re - ai * im + c, ar * im + ai * re
        return ar, ai

    def at_i(self) -> tuple[int, int]:
        return self.eval_gaussian(0, 1)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                var = "t" if k == 1 else f"t^{k}"
                if c == 1:
                    parts.append(var)
                elif c == -1:
                    parts.append(f"-{var}")
                else:
                    parts.append(f"{c}{var}")
        text = "+".join(parts)
        return text.replace("+-", "-")


def _strip(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    """coeffs without trailing zeros."""
    end = len(coeffs)
    while end and coeffs[end - 1] == 0:
        end -= 1
    return coeffs[:end]
