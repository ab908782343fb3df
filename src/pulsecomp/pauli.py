"""Exact symbolic algebra of n-qubit Pauli strings.

Pauli words are strings over {I, X, Y, Z}; position k of the word is tensor
factor k (qubit k).  Products and commutators are computed exactly through
the single-qubit multiplication table, with the accumulated power of i
carried alongside the word.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional

PAULI_LETTERS = "IXYZ"

# (a, b) -> (power of i, product letter); XY = iZ and cyclic.
_SINGLE_PRODUCT = {
    ("I", "I"): (0, "I"),
    ("I", "X"): (0, "X"),
    ("I", "Y"): (0, "Y"),
    ("I", "Z"): (0, "Z"),
    ("X", "I"): (0, "X"),
    ("Y", "I"): (0, "Y"),
    ("Z", "I"): (0, "Z"),
    ("X", "X"): (0, "I"),
    ("Y", "Y"): (0, "I"),
    ("Z", "Z"): (0, "I"),
    ("X", "Y"): (1, "Z"),
    ("Y", "X"): (3, "Z"),
    ("Y", "Z"): (1, "X"),
    ("Z", "Y"): (3, "X"),
    ("Z", "X"): (1, "Y"),
    ("X", "Z"): (3, "Y"),
}

_PHASES = (1, 1j, -1, -1j)


class PauliError(ValueError):
    """Domain error in the Pauli algebra (bad letters, size mismatch)."""


@dataclass(frozen=True)
class PauliString:
    """A tensor word of single-qubit Paulis, e.g. ``"XIZ"``."""

    letters: str

    def __post_init__(self) -> None:
        if not self.letters:
            raise PauliError("empty Pauli word")
        bad = [c for c in self.letters if c not in PAULI_LETTERS]
        if bad:
            raise PauliError(f"invalid Pauli letter {bad[0]!r} in {self.letters!r}")

    @property
    def n_qubits(self) -> int:
        return len(self.letters)

    @property
    def is_identity(self) -> bool:
        return set(self.letters) == {"I"}

    def __str__(self) -> str:
        return self.letters


@dataclass(frozen=True)
class PhasedPauli:
    """A Pauli word with a discrete phase i**phase_power."""

    phase_power: int
    string: PauliString

    def __post_init__(self) -> None:
        object.__setattr__(self, "phase_power", self.phase_power % 4)

    @property
    def phase(self) -> complex:
        return _PHASES[self.phase_power]

    def __str__(self) -> str:
        return f"{('+1','+i','-1','-i')[self.phase_power]}*{self.string}"


def multiply(p: PhasedPauli, q: PhasedPauli) -> PhasedPauli:
    """Exact product of two phased Pauli words."""
    if p.string.n_qubits != q.string.n_qubits:
        raise PauliError(
            f"size mismatch: {p.string.n_qubits} vs {q.string.n_qubits} qubits"
        )
    power = p.phase_power + q.phase_power
    letters = []
    for a, b in zip(p.string.letters, q.string.letters):
        dp, c = _SINGLE_PRODUCT[(a, b)]
        power += dp
        letters.append(c)
    return PhasedPauli(power, PauliString("".join(letters)))


@dataclass(frozen=True)
class Hamiltonian:
    """A real linear combination of Pauli strings (Hermitian by construction).

    Terms are canonicalized: coefficients stored as Python floats, duplicate
    words merged, exact zeros dropped, words sorted lexicographically.
    """

    n_qubits: int
    terms: tuple[tuple[float, PauliString], ...]

    @classmethod
    def from_terms(
        cls, n_qubits: int, terms: Iterable[tuple[float, PauliString]]
    ) -> "Hamiltonian":
        merged: dict[str, float] = {}
        for coeff, string in terms:
            if string.n_qubits != n_qubits:
                raise PauliError(
                    f"term {string} has {string.n_qubits} qubits, expected {n_qubits}"
                )
            if not isinstance(coeff, numbers.Real):
                raise PauliError(f"coefficient {coeff!r} of {string} is not a real number")
            merged[string.letters] = merged.get(string.letters, 0.0) + float(coeff)
        for w, c in merged.items():
            if not math.isfinite(c):
                raise PauliError(f"coefficient {c!r} of {w} is not finite")
        canon = tuple(
            (c, PauliString(w)) for w, c in sorted(merged.items()) if c != 0.0
        )
        return cls(n_qubits=n_qubits, terms=canon)

    @classmethod
    def zero(cls, n_qubits: int) -> "Hamiltonian":
        return cls(n_qubits=n_qubits, terms=())

    @classmethod
    def single(cls, coeff: float, word: str) -> "Hamiltonian":
        s = PauliString(word)
        return cls.from_terms(s.n_qubits, [(coeff, s)])

    @cached_property
    def coefficients(self) -> dict[str, float]:
        return {s.letters: c for c, s in self.terms}

    def is_zero(self, tol: float = 0.0) -> bool:
        return all(abs(c) <= tol for c, _ in self.terms)

    def max_coeff(self) -> float:
        return max((abs(c) for c, _ in self.terms), default=0.0)

    def __add__(self, other: "Hamiltonian") -> "Hamiltonian":
        if self.n_qubits != other.n_qubits:
            raise PauliError("size mismatch in Hamiltonian sum")
        return Hamiltonian.from_terms(self.n_qubits, [*self.terms, *other.terms])

    def __sub__(self, other: "Hamiltonian") -> "Hamiltonian":
        return self + (-1.0) * other

    def __rmul__(self, scalar: float) -> "Hamiltonian":
        return Hamiltonian.from_terms(
            self.n_qubits, [(scalar * c, s) for c, s in self.terms]
        )

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for c, s in self.terms:
            if not parts:
                parts.append(f"{c!r}*{s}")
            elif c < 0:
                parts.append(f"- {-c!r}*{s}")
            else:
                parts.append(f"+ {c!r}*{s}")
        return " ".join(parts)


def eta(j: int, n: int) -> Hamiltonian:
    """The j-th canonical generator: 1/2 times the base-4 digit word of j.

    Digit k of j (k = 1 least significant) selects the letter of tensor
    factor k from (I, X, Y, Z).
    """
    if not 0 <= j < 4**n:
        raise PauliError(f"generator index {j} out of range for {n} qubits")
    letters = "".join(PAULI_LETTERS[(j // 4 ** (k - 1)) % 4] for k in range(1, n + 1))
    return Hamiltonian.single(0.5, letters)


def _product_terms(h1: Hamiltonian, h2: Hamiltonian) -> dict[str, complex]:
    out: dict[str, complex] = {}
    for c1, s1 in h1.terms:
        for c2, s2 in h2.terms:
            pp = multiply(PhasedPauli(0, s1), PhasedPauli(0, s2))
            w = pp.string.letters
            out[w] = out.get(w, 0.0) + c1 * c2 * pp.phase
    return out


def commutator_times_minus_i(h1: Hamiltonian, h2: Hamiltonian) -> Hamiltonian:
    """-i[h1, h2], a Hermitian (real-coefficient) Hamiltonian."""
    if h1.n_qubits != h2.n_qubits:
        raise PauliError("size mismatch in commutator")
    ab = _product_terms(h1, h2)
    ba = _product_terms(h2, h1)
    terms = []
    for w in set(ab) | set(ba):
        c = -1j * (ab.get(w, 0.0) - ba.get(w, 0.0))
        if c != 0.0:
            # Hermitian inputs give purely real results; the imaginary part
            # is identically zero by the per-letter phase bookkeeping.
            terms.append((c.real, PauliString(w)))
    return Hamiltonian.from_terms(h1.n_qubits, terms)


def square_identity_coefficient(h: Hamiltonian) -> Optional[float]:
    """c such that h*h = c*I exactly in the algebra, or None."""
    sq = _product_terms(h, h)
    scale = max((abs(v) for v in sq.values()), default=0.0)
    ident = "I" * h.n_qubits
    for w, v in sq.items():
        if w != ident and abs(v) > 1e-14 * max(scale, 1.0):
            return None
    return sq.get(ident, 0.0).real


# Relative tolerance of the su(2) closure and proportionality tests.
_CLOSURE_TOL = 1e-12


def proportional_coefficient(h1: Hamiltonian, h2: Hamiltonian) -> Optional[float]:
    """c such that h1 = c*h2 within _CLOSURE_TOL after canonicalization, or None."""
    tol = _CLOSURE_TOL
    scale = max(h1.max_coeff(), h2.max_coeff())
    if scale == 0.0:
        return 0.0
    c1 = {w: v for w, v in h1.coefficients.items() if abs(v) > tol * scale}
    c2 = {w: v for w, v in h2.coefficients.items() if abs(v) > tol * scale}
    if not c2 or set(c1) != set(c2):
        return None
    ratios = [c1[w] / c2[w] for w in c1]
    if max(ratios) - min(ratios) > tol * max(1.0, max(abs(r) for r in ratios)):
        return None
    return sum(ratios) / len(ratios)


def su2_triple(h1: Hamiltonian, h2: Hamiltonian) -> Optional[Hamiltonian]:
    """H3 = -i[H1, H2] when {H1, H2, H3} closes as su(2), else None.

    Closure requires -i[H2, H3] proportional to H1 and -i[H3, H1]
    proportional to H2 with positive structure constants.  A commuting or
    non-closing pair returns None; per the compensability criterion such a
    pair admits no compensation of a shared error.
    """
    tol = _CLOSURE_TOL
    h3 = commutator_times_minus_i(h1, h2)
    if h3.is_zero(tol * max(h1.max_coeff() * h2.max_coeff(), 1.0)):
        return None
    c1 = proportional_coefficient(commutator_times_minus_i(h2, h3), h1)
    c2 = proportional_coefficient(commutator_times_minus_i(h3, h1), h2)
    if c1 is None or c2 is None or c1 <= tol or c2 <= tol:
        return None
    return h3


def unit_su2_partner(h1: Hamiltonian, h2: Hamiltonian) -> Optional[Hamiltonian]:
    """H3 = -i[H1, H2] when the triple closes with unit structure constants.

    This is the condition under which simultaneous pulses of H1 and H2 act
    as tilted-axis rotations, so the four-pulse correction collapses exactly.
    """
    h3 = commutator_times_minus_i(h1, h2)
    if h3.is_zero():
        return None
    back1 = commutator_times_minus_i(h2, h3) - h1
    back2 = commutator_times_minus_i(h3, h1) - h2
    bound = _CLOSURE_TOL * max(h1.max_coeff(), h2.max_coeff(), 1.0)
    # Written so that a NaN residual or bound fails the check.
    if not (back1.max_coeff() <= bound and back2.max_coeff() <= bound):
        return None
    return h3


# --- Hamiltonian expression mini-language -----------------------------------
#
# expression := ["+" | "-"] term (("+" | "-") term)*
# term       := [coefficient "*"] word
# coefficient:= decimal [exponent] | integer "/" integer
# word       := one or more of I, X, Y, Z

_TOKEN = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+\-]?\d+)?)"
    r"|(?P<word>[A-Za-z]+)|(?P<op>[+\-*/]))"
)


class ExpressionError(ValueError):
    """Parse error in a Hamiltonian expression; carries the column."""

    def __init__(self, message: str, column: int):
        super().__init__(f"column {column}: {message}")
        self.column = column


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            col = pos + len(text[pos:]) - len(text[pos:].lstrip()) + 1
            raise ExpressionError(f"unexpected character {text.strip()[0]!r}", col)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind) + 1))
        pos = m.end()
    return tokens


def parse_hamiltonian(text: str, n_qubits: Optional[int] = None) -> Hamiltonian:
    """Parse a Pauli-sum expression such as ``"0.5*XX + 0.5*YY"``.

    Coefficients may be decimals, with an optional exponent, or rationals
    of integers (``"1/2*ZZ"``); a bare word has coefficient 1, and the first
    term may carry a sign.  All words must share one length, which must
    match ``n_qubits`` when given.  ``str`` of a Hamiltonian parses back to
    equal coefficients.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ExpressionError("empty expression", 1)
    terms: list[tuple[float, PauliString]] = []
    i = 0
    sign = 1.0
    if tokens[0][0] == "op" and tokens[0][1] in "+-":
        sign = 1.0 if tokens[0][1] == "+" else -1.0
        i = 1
    expect_term = True
    while i < len(tokens):
        kind, value, col = tokens[i]
        if expect_term:
            coeff = sign
            if kind == "num":
                num = float(value)
                if not math.isfinite(num):
                    raise ExpressionError(f"coefficient {value!r} is not finite", col)
                i += 1
                if i < len(tokens) and tokens[i][:2] == ("op", "/"):
                    i += 1
                    if i >= len(tokens) or tokens[i][0] != "num":
                        raise ExpressionError("expected denominator", col)
                    denom = tokens[i][1]
                    if not value.isdigit():
                        raise ExpressionError(f"bad numerator {value!r}", col)
                    if not denom.isdigit() or int(denom) == 0:
                        raise ExpressionError(f"bad denominator {denom!r}", tokens[i][2])
                    num = float(Fraction(int(value), int(denom)))
                    i += 1
                if i < len(tokens) and tokens[i][:2] == ("op", "*"):
                    i += 1
                coeff *= num
            if i >= len(tokens) or tokens[i][0] != "word":
                raise ExpressionError("expected a Pauli word", col)
            word = tokens[i][1].upper()
            for off, c in enumerate(word):
                if c not in PAULI_LETTERS:
                    raise ExpressionError(
                        f"invalid Pauli letter {c!r}", tokens[i][2] + off
                    )
            terms.append((coeff, PauliString(word)))
            i += 1
            expect_term = False
        else:
            if kind != "op" or value not in "+-":
                raise ExpressionError(f"expected '+' or '-', got {value!r}", col)
            sign = 1.0 if value == "+" else -1.0
            i += 1
            expect_term = True
    if expect_term:
        raise ExpressionError("dangling operator", len(text))
    lengths = {s.n_qubits for _, s in terms}
    if len(lengths) > 1:
        raise ExpressionError(f"mixed word lengths {sorted(lengths)}", 1)
    n = lengths.pop()
    if n_qubits is not None and n != n_qubits:
        raise ExpressionError(f"expected {n_qubits}-qubit words, got {n}", 1)
    return Hamiltonian.from_terms(n, terms)
