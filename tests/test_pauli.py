"""Tests for the exact Pauli-string algebra."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pulsecomp import (
    ExpressionError,
    Hamiltonian,
    PauliError,
    PauliString,
    PhasedPauli,
    commutator_times_minus_i,
    eta,
    multiply,
    parse_hamiltonian,
    su2_triple,
    unit_su2_partner,
)
from pulsecomp import pauli
from pulsecomp.encoded import heisenberg_coupling, xy3_encoding, xy_coupling
from pulsecomp.unitary import matrix_of

_SIGMA = {
    "I": np.eye(2),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.diag([1.0, -1.0]).astype(complex),
}


def dense_word(word: str) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for c in word:
        out = np.kron(out, _SIGMA[c])
    return out


words = st.text(alphabet="IXYZ", min_size=1, max_size=4)


class TestPauliString:
    def test_valid(self):
        s = PauliString("XIZ")
        assert s.n_qubits == 3
        assert str(s) == "XIZ"

    def test_identity_flag(self):
        assert PauliString("II").is_identity
        assert not PauliString("IX").is_identity

    def test_rejects_bad_letters(self):
        with pytest.raises(PauliError):
            PauliString("XQ")
        with pytest.raises(PauliError):
            PauliString("")

    def test_equality_is_letterwise(self):
        assert PauliString("XY") == PauliString("XY")
        assert PauliString("XY") != PauliString("YX")


class TestEta:
    def test_identity_generator(self):
        assert eta(0, 2).terms == ((0.5, PauliString("II")),)

    def test_single_qubit_x(self):
        assert eta(1, 1).terms == ((0.5, PauliString("X")),)

    def test_base4_digit_order(self):
        # 7 = 3 + 1*4: digit 1 (least significant) is Z on factor 1.
        assert eta(7, 2).terms == ((0.5, PauliString("ZX")),)

    def test_out_of_range(self):
        with pytest.raises(PauliError):
            eta(16, 2)
        with pytest.raises(PauliError):
            eta(-1, 2)

    def test_enumerates_distinct_traceless_words(self):
        for n in (1, 2):
            seen = set()
            for j in range(4**n):
                h = eta(j, n)
                (coeff, s) = h.terms[0]
                assert coeff == 0.5
                seen.add(s.letters)
                if j >= 1:
                    assert abs(np.trace(dense_word(s.letters))) < 1e-14
            assert len(seen) == 4**n


class TestMultiply:
    def test_involution(self):
        p = PhasedPauli(0, PauliString("X"))
        assert multiply(p, p) == PhasedPauli(0, PauliString("I"))

    def test_xy_is_iz(self):
        out = multiply(PhasedPauli(0, PauliString("X")), PhasedPauli(0, PauliString("Y")))
        assert out == PhasedPauli(1, PauliString("Z"))
        assert out.phase == 1j

    def test_two_qubit_phases_combine(self):
        out = multiply(
            PhasedPauli(0, PauliString("XY")), PhasedPauli(0, PauliString("YX"))
        )
        assert out == PhasedPauli(0, PauliString("ZZ"))

    def test_size_mismatch(self):
        with pytest.raises(PauliError):
            multiply(PhasedPauli(0, PauliString("X")), PhasedPauli(0, PauliString("XX")))

    def test_phase_normalization(self):
        assert PhasedPauli(5, PauliString("X")).phase_power == 1

    @given(words, words, words)
    @settings(max_examples=200, deadline=None)
    def test_associative(self, a, b, c):
        n = max(len(a), len(b), len(c))
        pa = PhasedPauli(0, PauliString(a.ljust(n, "I")))
        pb = PhasedPauli(0, PauliString(b.ljust(n, "I")))
        pc = PhasedPauli(0, PauliString(c.ljust(n, "I")))
        assert multiply(multiply(pa, pb), pc) == multiply(pa, multiply(pb, pc))

    @given(words, words)
    @settings(max_examples=300, deadline=None)
    def test_matches_dense_product(self, a, b):
        n = max(len(a), len(b))
        a, b = a.ljust(n, "I"), b.ljust(n, "I")
        out = multiply(PhasedPauli(0, PauliString(a)), PhasedPauli(0, PauliString(b)))
        dense = dense_word(a) @ dense_word(b)
        assert np.abs(dense - out.phase * dense_word(out.string.letters)).max() < 1e-14


def word_commutator(a: str, b: str) -> Hamiltonian:
    """-i[a/2, b/2] for two Pauli words: zero, or +-w/2 for one word w."""
    return commutator_times_minus_i(Hamiltonian.single(0.5, a), Hamiltonian.single(0.5, b))


class TestCommutatorClass:
    def test_single_qubit_partner(self):
        # [X/2, Y/2] = +i Z/2
        assert word_commutator("X", "Y").terms == ((0.5, PauliString("Z")),)

    def test_zz_x1_partner(self):
        # the sign is fixed by the dense oracle below
        assert word_commutator("ZZ", "XI").terms == ((0.5, PauliString("YZ")),)

    def test_even_overlap_commutes(self):
        assert word_commutator("ZZ", "XX").terms == ()

    def test_size_mismatch(self):
        with pytest.raises(PauliError):
            word_commutator("X", "XX")

    def test_all_pairs_against_dense_oracle(self):
        n = 2
        for i in range(1, 4**n):
            for j in range(1, 4**n):
                a = eta(i, n).terms[0][1].letters
                b = eta(j, n).terms[0][1].letters
                h3 = word_commutator(a, b)
                da, db = 0.5 * dense_word(a), 0.5 * dense_word(b)
                comm = da @ db - db @ da
                if not h3.terms:
                    assert np.abs(comm).max() < 1e-14
                else:
                    ((c, w),) = h3.terms
                    assert abs(c) == 0.5
                    assert np.abs(comm - 1j * c * dense_word(w.letters)).max() < 1e-14


class TestHamiltonian:
    def test_merges_and_drops_zero_terms(self):
        h = Hamiltonian.from_terms(
            1, [(1.0, PauliString("X")), (-1.0, PauliString("X")), (2.0, PauliString("Z"))]
        )
        assert h.terms == ((2.0, PauliString("Z")),)

    def test_arithmetic(self):
        hx = Hamiltonian.single(1.0, "X")
        hz = Hamiltonian.single(0.5, "Z")
        assert (hx + hz).coefficients == {"X": 1.0, "Z": 0.5}
        assert (hx - hx).is_zero()
        assert (2.0 * hz).coefficients == {"Z": 1.0}

    def test_size_mismatch(self):
        with pytest.raises(PauliError):
            Hamiltonian.single(1.0, "X") + Hamiltonian.single(1.0, "XX")

    @pytest.mark.parametrize(
        "build, word",
        [
            (lambda: Hamiltonian.single(math.inf, "X"), "X"),
            (lambda: Hamiltonian.single(math.nan, "XZ"), "XZ"),
            (lambda: Hamiltonian.single(1e308, "YI") + Hamiltonian.single(1e308, "YI"), "YI"),
            (lambda: math.inf * Hamiltonian.single(0.5, "ZZ"), "ZZ"),
        ],
    )
    def test_non_finite_coefficient_rejected(self, build, word):
        with pytest.raises(PauliError, match=f"of {word} is not finite"):
            build()

    @pytest.mark.parametrize("coeff", [0.5j, np.complex128(0.5), "0.5"])
    def test_non_real_coefficient_rejected(self, coeff):
        with pytest.raises(PauliError, match="of XZ is not a real number"):
            Hamiltonian.single(coeff, "XZ")

    def test_commutator_is_hermitian(self):
        h1 = Hamiltonian.single(0.5, "ZZ") + Hamiltonian.single(0.25, "XY")
        h2 = Hamiltonian.single(0.5, "XI") + Hamiltonian.single(-0.5, "YY")
        h3 = commutator_times_minus_i(h1, h2)
        m = matrix_of(h3)
        assert np.abs(m - m.conj().T).max() < 1e-14
        dense = -1j * (matrix_of(h1) @ matrix_of(h2) - matrix_of(h2) @ matrix_of(h1))
        assert np.abs(m - dense).max() < 1e-13


class TestSu2Triple:
    def test_single_qubit(self):
        h3 = su2_triple(Hamiltonian.single(0.5, "X"), Hamiltonian.single(0.5, "Y"))
        assert h3.terms == ((0.5, PauliString("Z")),)

    def test_cyclic_closure(self):
        h1 = Hamiltonian.single(0.5, "X")
        h2 = Hamiltonian.single(0.5, "Y")
        h3 = su2_triple(h1, h2)
        back = su2_triple(h2, h3)
        # twice around the cycle lands on a positive multiple of the start
        ratio = back.coefficients["X"] / h1.coefficients["X"]
        assert ratio > 0
        assert abs(ratio - 1.0) < 1e-12

    def test_xy_couplings_close(self):
        ap = su2_triple(xy_coupling(1, 2), xy_coupling(2, 3))
        assert ap is not None
        assert ap.coefficients == pytest.approx({"XZY": 0.5, "YZX": -0.5})

    def test_heisenberg_pair_does_not_close(self):
        assert su2_triple(heisenberg_coupling(1, 2), heisenberg_coupling(2, 3)) is None

    def test_commuting_pair_rejected(self):
        assert su2_triple(Hamiltonian.single(0.5, "ZZ"), Hamiltonian.single(0.5, "XX")) is None

    def test_unit_partner(self):
        h3 = unit_su2_partner(
            Hamiltonian.single(0.5, "ZZ"), Hamiltonian.single(0.5, "XI")
        )
        assert h3.terms == ((0.5, PauliString("YZ")),)

    def test_unit_partner_rejects_scaled_pair(self):
        # closes as su(2) but with non-unit structure constants
        h3 = unit_su2_partner(Hamiltonian.single(1.0, "X"), Hamiltonian.single(1.0, "Y"))
        assert h3 is None

    def test_unit_partner_nan_bound_rejects(self, monkeypatch):
        # a NaN in the residual comparison fails the closure check
        h1, h2 = Hamiltonian.single(0.5, "ZZ"), Hamiltonian.single(0.5, "XI")
        assert unit_su2_partner(h1, h2) is not None
        monkeypatch.setattr(pauli, "_CLOSURE_TOL", math.nan)
        assert unit_su2_partner(h1, h2) is None


class TestParseHamiltonian:
    def test_decimal_terms(self):
        h = parse_hamiltonian("0.5*XX + 0.5*YY")
        assert h.coefficients == {"XX": 0.5, "YY": 0.5}

    def test_rational_coefficient(self):
        assert parse_hamiltonian("1/2*ZZ").coefficients == {"ZZ": 0.5}

    def test_bare_word_and_signs(self):
        h = parse_hamiltonian("XX - 0.25*YY")
        assert h.coefficients == {"XX": 1.0, "YY": -0.25}

    def test_invalid_letter_named_with_column(self):
        with pytest.raises(ExpressionError) as exc:
            parse_hamiltonian("0.5*ZQ")
        assert "Q" in str(exc.value)
        assert exc.value.column == 6

    def test_empty_and_dangling(self):
        with pytest.raises(ExpressionError):
            parse_hamiltonian("")
        with pytest.raises(ExpressionError):
            parse_hamiltonian("0.5*XX +")

    def test_mixed_lengths_rejected(self):
        with pytest.raises(ExpressionError):
            parse_hamiltonian("X + XX")

    def test_qubit_count_check(self):
        with pytest.raises(ExpressionError):
            parse_hamiltonian("0.5*XX", n_qubits=3)

    def test_roundtrip_through_str(self):
        h = parse_hamiltonian("0.5*XI - 0.25*ZZ")
        assert parse_hamiltonian(str(h)).coefficients == h.coefficients
        assert str(h) == "0.5*XI - 0.25*ZZ"
        third = 1.0 / math.sqrt(3.0)
        xy3 = xy3_encoding()
        for h in (
            parse_hamiltonian("-0.5*ZZ"),
            parse_hamiltonian("1e-20*ZZ"),
            parse_hamiltonian("+XX - 2.5E+3*YY"),
            Hamiltonian.single(third, "XX") + Hamiltonian.single(-third, "ZZ"),
            Hamiltonian.single(np.float64(0.5), "X"),
            xy3.logical_z,
            xy3.logical_x,
        ):
            assert parse_hamiltonian(str(h)).coefficients == h.coefficients
        assert parse_hamiltonian("-0.5*ZZ").coefficients == {"ZZ": -0.5}
        assert parse_hamiltonian("1e-20*ZZ").coefficients == {"ZZ": 1e-20}

    def test_bad_coefficients_rejected(self):
        # rationals take integers only; an exponent may not overflow
        for text in ("0.5/2*ZZ", "1e3/2*ZZ", "1/2.0*ZZ", "1/0*ZZ", "1e999*ZZ"):
            with pytest.raises(ExpressionError):
                parse_hamiltonian(text)
