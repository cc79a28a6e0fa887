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
    def _of(cls, coeffs: list[int]) -> "IntPolynomial":
        """A result built from int coefficients already: skips the type
        check in __post_init__.  Trailing zeros are popped off the list,
        which the result takes over, before the one tuple is made."""
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        out = object.__new__(cls)
        object.__setattr__(out, "coeffs", tuple(coeffs))
        return out

    @classmethod
    def zero(cls) -> "IntPolynomial":
        """The zero polynomial, one shared frozen instance."""
        return _ZERO

    @classmethod
    def one(cls) -> "IntPolynomial":
        return cls((1,))

    @property
    def degree(self) -> int:
        # zero polynomial reports degree -1
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # Values are immutable, so adding zero or multiplying by one returns
    # the operand itself, and p - p the shared zero: no new polynomial
    # is built.

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        long, short = self.coeffs, other.coeffs
        if not short:
            return self
        if not long:
            return other
        if len(long) < len(short):
            long, short = short, long
        out = list(long)
        for k, c in enumerate(short):
            out[k] += c
        return IntPolynomial._of(out)

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        if not other.coeffs:
            return self
        if self.coeffs == other.coeffs:
            return _ZERO
        out = list(self.coeffs) + [0] * (len(other.coeffs) - len(self.coeffs))
        for k, c in enumerate(other.coeffs):
            out[k] -= c
        return IntPolynomial._of(out)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial._of([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 1:
                return self
            if not other:
                return _ZERO
            return IntPolynomial._of([c * other for c in self.coeffs])
        if isinstance(other, IntPolynomial):
            a, b = self.coeffs, other.coeffs
            if b == (1,):
                return self
            if a == (1,):
                return other
            if not a or not b:
                return _ZERO
            # Poincare values and crossing terms have only even powers, so
            # both operands' zero coefficients are skipped.
            terms = [(j, c) for j, c in enumerate(b) if c]
            out = [0] * (len(a) + len(b) - 1)
            for i, c in enumerate(a):
                if c:
                    for j, d in terms:
                        out[i + j] += c * d
            return IntPolynomial._of(out)
        return NotImplemented

    __rmul__ = __mul__

    def __call__(self, t: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def at_i(self) -> tuple[int, int]:
        """The value at i, read off the coefficients by exponent mod 4:
        i^k is 1, i, -1, -i for k = 0, 1, 2, 3 (mod 4)."""
        c = self.coeffs
        if len(c) < 3:
            # most values are constants: the coefficients are the answer
            c += (0, 0)
            return c[0], c[1]
        return sum(c[0::4]) - sum(c[2::4]), sum(c[1::4]) - sum(c[3::4])

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


_ZERO = IntPolynomial(())
