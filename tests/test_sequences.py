"""Tests for the sequence builders and the memoizing compiler."""

import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pulsecomp import (
    CompileCache,
    CompileError,
    ErrorAssignment,
    Hamiltonian,
    PauliError,
    PauliString,
    Pulse,
    PulseSequence,
    SequenceError,
    bb1_j,
    bb1_w,
    bb1_wj,
    chain_labels,
    compile_sequence,
    compile_stack,
    distance,
    evolve,
    fidelities,
    fidelity,
    phi_of,
    substitute,
    w_correction,
    wj_chain,
)
from pulsecomp import pauli, sequences, unitary
from pulsecomp.encoded import heisenberg_coupling

HX = Hamiltonian.single(0.5, "X")
HY = Hamiltonian.single(0.5, "Y")
HZZ = Hamiltonian.single(0.5, "ZZ")
HX1 = Hamiltonian.single(0.5, "XI")
HY1 = Hamiltonian.single(0.5, "YI")


class TestPhiOf:
    def test_zero_angle(self):
        assert phi_of(0.0) == pytest.approx(math.pi / 2)

    def test_pi(self):
        assert phi_of(math.pi) == pytest.approx(math.acos(-0.25))

    def test_half_pi(self):
        assert phi_of(math.pi / 2) == pytest.approx(math.acos(-0.125))

    def test_domain_error(self):
        with pytest.raises(SequenceError):
            phi_of(4.5 * math.pi)

    def test_nan_rejected(self):
        with pytest.raises(SequenceError, match="theta = nan is not finite"):
            phi_of(math.nan)


class TestPulseTypes:
    def test_empty_pulse_rejected(self):
        with pytest.raises(SequenceError):
            Pulse(())

    def test_mixed_sizes_rejected(self):
        with pytest.raises(SequenceError):
            Pulse((("a", 1.0, HX), ("b", 1.0, HZZ)))

    def test_non_finite_angle_rejected(self):
        with pytest.raises(SequenceError):
            Pulse.single("a", float("nan"), HX)

    def test_empty_sequence_rejected(self):
        with pytest.raises(SequenceError):
            PulseSequence(())

    def test_nested_flattening_and_labels(self):
        inner = PulseSequence((Pulse.single("b", 1.0, HY),))
        seq = PulseSequence((Pulse.single("a", 1.0, HX), inner))
        assert len(seq.pulses) == 2
        assert seq.labels == {"a", "b"}

    def test_inverse_compiles_to_dagger(self):
        seq = bb1_j(0.9, HZZ, HX1, "a", "b")
        errs = ErrorAssignment({"a": 0.02, "b": -0.01})
        u = compile_sequence(seq, errs)
        v = compile_sequence(seq.inverse(), errs)
        assert np.abs(u.matrix @ v.matrix - np.eye(4)).max() < 1e-12

    def test_dump_format(self):
        seq = PulseSequence((Pulse.single("ZZ", math.pi / 4, HZZ),))
        line = seq.dump().strip()
        label, theta, expr = line.split(" ", 2)
        assert label == "ZZ"
        assert float(theta) == pytest.approx(math.pi / 4)
        assert expr == "0.5*ZZ"


class TestErrorAssignment:
    def test_group_propagates_value(self):
        e = ErrorAssignment({"a": 0.1}, groups=(frozenset({"a", "b"}),))
        assert e.resolve("b") == 0.1

    def test_group_conflict_rejected(self):
        with pytest.raises(CompileError):
            ErrorAssignment({"a": 0.1, "b": 0.2}, groups=(frozenset({"a", "b"}),))

    def test_missing_label(self):
        with pytest.raises(CompileError):
            ErrorAssignment({"a": 0.1}).resolve("zz")

    def test_constructors(self):
        assert ErrorAssignment.zero(["a", "b"]).values == {"a": 0.0, "b": 0.0}
        assert ErrorAssignment.uniform(["a"], 0.3).values == {"a": 0.3}

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected_with_label(self, bad):
        with pytest.raises(CompileError, match="'zz'"):
            ErrorAssignment({"a": 0.1, "zz": bad})


class TestBb1W:
    def test_collapse_at_zero(self):
        for theta in (0.3, math.pi / 2, -1.2):
            seq = bb1_w(theta, HX, HY, "a", "b")
            u = compile_sequence(seq, ErrorAssignment.zero(["a", "b"]))
            assert distance(evolve([(theta, 0.0, HX)]), u, align_phase=True) < 1e-12

    def test_pulse_count(self):
        assert len(bb1_w(0.5, HX, HY, "a", "b").pulses) == 4

    def test_sixth_power_ratio(self):
        seq = bb1_w(math.pi / 2, HX, HY, "a", "b")
        target = evolve([(math.pi / 2, 0.0, HX)])

        def infid(e):
            return fidelity(
                target, compile_sequence(seq, ErrorAssignment.uniform(["a", "b"], e))
            ).infidelity

        ratio = infid(1e-2) / infid(1e-3)
        assert 0.5e6 < ratio < 2e6

    def test_rejects_non_closing_pair(self):
        with pytest.raises(SequenceError):
            bb1_w(0.5, heisenberg_coupling(1, 2), heisenberg_coupling(2, 3), "a", "b")

    def test_rejects_commuting_pair(self):
        with pytest.raises(SequenceError):
            bb1_w(0.5, Hamiltonian.single(0.5, "ZZ"), Hamiltonian.single(0.5, "XX"), "a", "b")


class TestBb1J:
    def test_exact_for_pure_tilt_error(self):
        seq = bb1_j(0.7, HZZ, HX1, "a", "b")
        u = compile_sequence(seq, ErrorAssignment({"a": 0.0, "b": 0.3}))
        assert distance(evolve([(0.7, 0.0, HZZ)]), u, align_phase=True) < 1e-12

    def test_pulse_count_and_tilt_angles(self):
        theta = 1.1
        seq = bb1_j(theta, HZZ, HX1, "a", "b")
        assert len(seq.pulses) == 10
        phi = phi_of(theta)
        tilt_angles = sorted(
            th for p in seq.pulses for (l, th, _) in p.terms if l == "b"
        )
        assert len(tilt_angles) == 6
        assert tilt_angles == pytest.approx(
            sorted([phi, -phi, phi, -phi, 3 * phi, -3 * phi])
        )


class TestBb1Wj:
    def test_pulse_count(self):
        assert len(bb1_wj(0.5, HZZ, HX1, HY1, "a", "b", "c").pulses) == 28

    def test_collapse_at_zero(self):
        seq = bb1_wj(math.pi / 4, HZZ, HX1, HY1, "a", "b", "c")
        u = compile_sequence(seq, ErrorAssignment.zero(["a", "b", "c"]))
        assert distance(evolve([(math.pi / 4, 0.0, HZZ)]), u, align_phase=True) < 1e-12

    def test_ungrouped_errors_rejected(self):
        seq = bb1_wj(0.5, HZZ, HX1, HY1, "a", "b", "c")
        with pytest.raises(CompileError):
            compile_sequence(seq, ErrorAssignment({"a": 0.0, "b": 0.01, "c": 0.02}))

    def test_matches_manual_substitution(self):
        theta = math.pi / 4
        direct = bb1_wj(theta, HZZ, HX1, HY1, "a", "b", "c")
        manual = substitute(
            bb1_j(theta, HZZ, HX1, "a", "b"),
            "b",
            lambda x: bb1_w(x, HX1, HY1, "b", "c"),
        )
        assert direct.dump() == manual.dump()


class TestInterning:
    def test_equal_pulses_are_one_object(self):
        p = Pulse.single("a", 0.5, HX)
        assert Pulse.single("a", 0.5, Hamiltonian.single(0.5, "X")) is p
        assert Pulse((("a", 0.5, HX),)) is p
        assert Pulse.single("a", 0.25, HX) is not p
        assert Pulse.single("b", 0.5, HX) is not p

    def test_equal_sequences_are_one_object(self):
        assert bb1_w(0.5, HX, HY, "a", "b") is bb1_w(0.5, HX, HY, "a", "b")
        assert bb1_wj(0.5, HZZ, HX1, HY1, "a", "b", "c") is bb1_wj(
            0.5, HZZ, HX1, HY1, "a", "b", "c"
        )
        items = (Pulse.single("a", 1.0, HX),)
        grouped = PulseSequence(items, required_groups=(frozenset({"a", "b"}),))
        assert PulseSequence(items) is not grouped
        assert PulseSequence(items, (frozenset({"a", "b"}),)) is grouped

    def test_double_inverse_is_identity(self):
        for seq in (
            bb1_w(0.5, HX, HY, "a", "b"),
            bb1_wj(0.5, HZZ, HX1, HY1, "a", "b", "c"),
            wj_chain(2, math.pi / 4),
        ):
            assert seq.inverse() is seq.inverse()
            assert seq.inverse().inverse() is seq
        p = Pulse.single("a", 0.5, HX)
        assert p.inverse().inverse() is p

    def test_signed_zero_angles_stay_distinct(self):
        pos = Pulse.single("a", 0.0, HX)
        neg = Pulse.single("a", -0.0, HX)
        assert pos is not neg
        assert pos.inverse() is neg
        assert PulseSequence((pos,)).dump() == "a 0 0.5*X\n"
        assert PulseSequence((neg,)).dump() == "a -0 0.5*X\n"

    def test_bb1_wj_tilt_blocks_shared(self):
        seq = bb1_wj(0.5, HZZ, HX1, HY1, "a", "b", "c")
        blocks = [it for it in seq.items if isinstance(it, PulseSequence)]
        assert len(blocks) == 6
        # tilts -phi, phi, -3phi, 3phi, -phi, phi: two angles, each with
        # its inverse
        assert len({id(b) for b in blocks}) == 4
        assert blocks[0] is blocks[4] and blocks[1] is blocks[5]
        assert blocks[0] is blocks[1].inverse()
        assert blocks[2] is blocks[3].inverse()

    def test_copy_and_pickle_keep_identity(self):
        seq = bb1_wj(0.5, HZZ, HX1, HY1, "a", "b", "c")
        assert copy.deepcopy(seq) is seq
        assert pickle.loads(pickle.dumps(seq)) is seq

    def test_nodes_are_immutable(self):
        seq = bb1_w(0.5, HX, HY, "a", "b")
        with pytest.raises(AttributeError):
            seq.items = ()
        with pytest.raises(AttributeError):
            seq.items[0].terms = ()

    def test_compile_with_and_without_cache_bitwise(self):
        for seq in (
            bb1_wj(math.pi / 4, HZZ, HX1, HY1, "a", "b", "c"),
            wj_chain(3, math.pi / 4).inverse(),
        ):
            errs = ErrorAssignment.uniform(seq.labels, 2e-3)
            plain = compile_sequence(seq, errs)
            cached = compile_sequence(seq, errs, CompileCache())
            assert np.array_equal(plain.matrix, cached.matrix)


class TestPulseCount:
    def test_matches_flattened_length(self):
        cases = [
            (bb1_w(0.5, HX, HY, "a", "b"), 4),
            (bb1_j(0.5, HZZ, HX1, "a", "b"), 10),
            (bb1_wj(0.5, HZZ, HX1, HY1, "a", "b", "c"), 28),
            (wj_chain(2, math.pi / 4), 172),
            (wj_chain(3, math.pi / 4), 6220),
        ]
        for seq, count in cases:
            assert seq.pulse_count == len(seq.pulses) == count

    def test_deep_chains_follow_recurrence(self):
        # L_k = 4 + 6 L_{k-1}, L_0 = 4, over 2(n - 1) levels
        lengths = [4]
        for _ in range(8):
            lengths.append(4 + 6 * lengths[-1])
        assert wj_chain(4, math.pi / 4).pulse_count == lengths[6] == 223948
        assert wj_chain(5, math.pi / 4).pulse_count == lengths[8] == 8062156


class TestSubstitute:
    def test_identity_substitution_preserves_output(self):
        seq = bb1_j(0.8, HZZ, HX1, "a", "b")
        sub = substitute(
            seq, "b", lambda x: PulseSequence((Pulse.single("b", x, HX1),))
        )
        errs = ErrorAssignment({"a": 0.0, "b": 0.0})
        assert np.abs(
            compile_sequence(seq, errs).matrix - compile_sequence(sub, errs).matrix
        ).max() < 1e-12

    def test_mismatched_action_rejected(self):
        seq = bb1_j(0.8, HZZ, HX1, "a", "b")
        with pytest.raises(SequenceError):
            substitute(
                seq, "b", lambda x: PulseSequence((Pulse.single("b", x / 2, HX1),))
            )

    def test_nested_check_failure_propagates(self):
        from pulsecomp import sequences

        def bad_inner(x):
            return PulseSequence((Pulse.single("b", x / 2, HX1),))

        def outer(x):
            return substitute(bb1_j(x, HX1, HZZ, "b", "a"), "b", bad_inner)

        with pytest.raises(SequenceError):
            substitute(bb1_j(0.8, HZZ, HX1, "a", "b"), "b", outer)
        assert sequences._CHECK_CACHE.get() is None

    def test_simultaneous_pulse_rejected(self):
        seq = PulseSequence((Pulse((("a", 1.0, HX), ("b", 1.0, HY))),))
        with pytest.raises(SequenceError):
            substitute(seq, "a", lambda x: PulseSequence((Pulse.single("a", x, HX),)))


class TestWjChain:
    def test_level_zero_is_single_qubit_correction(self):
        assert wj_chain(1, 0.9).dump() == bb1_w(0.9, HX, HY, "X1", "Y1").dump()

    def test_pulse_counts(self):
        assert len(wj_chain(2, math.pi / 4).pulses) == 172

    def test_labels(self):
        assert set(chain_labels(3)) == {"X1", "X2", "X3", "Y1", "ZZ12", "ZZ23"}
        assert wj_chain(2, 0.5).labels == {"X1", "X2", "Y1", "ZZ12"}

    def test_collapse_at_zero(self):
        seq = wj_chain(2, math.pi / 4)
        u = compile_sequence(seq, ErrorAssignment.zero(seq.labels))
        target = evolve([(math.pi / 4, 0.0, Hamiltonian.single(0.5, "IX"))])
        assert distance(target, u, align_phase=True) < 1e-11

    def test_beats_uncorrected_at_small_error(self):
        seq = wj_chain(2, math.pi / 4)
        eps = 1e-3
        errs = ErrorAssignment.uniform(seq.labels, eps)
        target = evolve([(math.pi / 4, 0.0, Hamiltonian.single(0.5, "IX"))])
        corrected = fidelity(target, compile_sequence(seq, errs)).infidelity
        uncorrected = fidelity(
            target, evolve([(math.pi / 4, eps, Hamiltonian.single(0.5, "IX"))])
        ).infidelity
        assert corrected < uncorrected

    def test_invalid_length(self):
        with pytest.raises(SequenceError):
            wj_chain(0, 0.5)


class TestCompile:
    def test_missing_labels_listed(self):
        seq = bb1_wj(0.5, HZZ, HX1, HY1, "a", "b", "c")
        with pytest.raises(CompileError) as exc:
            compile_sequence(seq, ErrorAssignment({"a": 0.0}))
        assert "b" in str(exc.value) and "c" in str(exc.value)

    def test_cache_agrees_bitwise(self):
        seq = wj_chain(2, math.pi / 4)
        errs = ErrorAssignment.uniform(seq.labels, 3e-3)
        plain = compile_sequence(seq, errs)
        cache = CompileCache()
        cached = compile_sequence(seq, errs, cache)
        again = compile_sequence(seq, errs, cache)
        assert np.array_equal(plain.matrix, cached.matrix)
        assert np.array_equal(cached.matrix, again.matrix)

    def test_uncached_compile_memoizes_within_call(self, monkeypatch):
        seq = wj_chain(3, math.pi / 4)
        zero = ErrorAssignment.zero(seq.labels)
        real, calls = unitary._Synthesis.unitaries, []
        monkeypatch.setattr(
            unitary._Synthesis,
            "unitaries",
            lambda plan, points: calls.append(points) or real(plan, points),
        )
        plain = compile_sequence(seq, zero)
        # each distinct pulse is synthesized once, not each of the 6220 slots
        assert seq.pulse_count == 6220
        assert 0 < len(calls) < 300
        cached = compile_sequence(seq, zero, CompileCache())
        assert np.array_equal(plain.matrix, cached.matrix)

    def test_pulse_structure_derived_once(self, monkeypatch):
        seq = wj_chain(3, math.pi / 4)
        unitary._synthesis.cache_clear()
        calls, real = [], pauli.multiply

        def counting(p, q):
            calls.append(1)
            return real(p, q)

        monkeypatch.setattr(pauli, "multiply", counting)
        monkeypatch.setattr(unitary, "multiply", counting)
        counts = []
        for magnitude in (1e-3, 1e-2, 1e-1):
            before = len(calls)
            errors = ErrorAssignment.uniform(seq.labels, magnitude)
            compile_sequence(seq, errors, CompileCache())
            counts.append(len(calls) - before)
        # the first compile derives each pulse's word products; later ones reuse them
        assert counts[0] > 0
        assert counts[1:] == [0, 0]

    def test_cache_hits_on_repeated_blocks(self):
        seq = wj_chain(2, math.pi / 4)
        cache = CompileCache()
        compile_sequence(seq, ErrorAssignment.uniform(seq.labels, 1e-3), cache)
        assert cache.hits > 0
        assert len(cache) < len(seq.pulses)

    def test_cache_key_includes_errors(self):
        seq = bb1_w(0.5, HX, HY, "a", "b")
        cache = CompileCache()
        u1 = compile_sequence(seq, ErrorAssignment.uniform(["a", "b"], 0.01), cache)
        u2 = compile_sequence(seq, ErrorAssignment.uniform(["a", "b"], 0.02), cache)
        assert np.abs(u1.matrix - u2.matrix).max() > 0


@st.composite
def stacked_compiles(draw):
    """A 1-3-qubit sequence of pulses and a repeated block whose words
    repeat, and 1-8 error assignments to compile it at."""
    n = draw(st.integers(1, 3))
    words = draw(st.lists(st.text("IXYZ", min_size=n, max_size=n), min_size=1, max_size=4))
    coeff = st.sampled_from([0.5, -0.5, 1.0]) | st.floats(-2.0, 2.0)
    theta = st.sampled_from([0.0, math.pi, -math.pi / 2]) | st.floats(-7.0, 7.0)

    def pulse():
        terms = []
        for _ in range(draw(st.integers(1, 3))):
            pairs = draw(st.lists(st.tuples(coeff, st.sampled_from(words)), min_size=1, max_size=3))
            h = Hamiltonian.from_terms(n, [(c, PauliString(w)) for c, w in pairs])
            terms.append((draw(st.sampled_from("abc")), draw(theta), h))
        return Pulse(terms)

    pulses = [pulse() for _ in range(draw(st.integers(1, 4)))]
    block = PulseSequence(draw(st.lists(st.sampled_from(pulses), min_size=1, max_size=4)))
    seq = PulseSequence(draw(st.lists(st.sampled_from([*pulses, block]), min_size=1, max_size=6)))
    eps = st.sampled_from([0.0, -0.0, -1.0, 1e-12]) | st.floats(-0.5, 0.5)
    points = [
        ErrorAssignment({l: draw(eps) for l in seq.labels})
        for _ in range(draw(st.integers(1, 8)))
    ]
    return seq, points


class TestStack:
    """A stacked compile is, bit for bit, the one-point compiles of its points."""

    @settings(max_examples=80, deadline=None)
    @given(stacked_compiles())
    def test_stack_equals_points(self, case):
        seq, points = case
        stack, defect = compile_stack(seq, points)
        singles = [compile_sequence(seq, p) for p in points]
        assert [m.tobytes() for m in stack] == [u.matrix.tobytes() for u in singles]
        assert defect == max(unitary.check_unitary(u.matrix) for u in singles)
        target = singles[-1]
        assert list(map(repr, fidelities(target, stack))) == [
            repr(fidelity(target, u)) for u in singles
        ]

    def test_closed_form_and_eigh_points_share_a_stack(self):
        # X and IX-type words commute, so A^2 != cI unless one coefficient is 0
        h = Hamiltonian.single(0.5, "XI") + Hamiltonian.single(0.5, "IX")
        seq = PulseSequence((Pulse((("a", 1.0, h), ("b", 0.7, HX1))),))
        points = [ErrorAssignment({"a": -1.0, "b": 0.1}), ErrorAssignment({"a": 0.1, "b": 0.1})]
        stack, _ = compile_stack(seq, points)
        assert [m.tobytes() for m in stack] == [
            compile_sequence(seq, p).matrix.tobytes() for p in points
        ]

    def test_non_finite_point_raises_as_alone(self):
        seq = PulseSequence((Pulse.single("a", 0.5, HX), Pulse.single("b", 4.0, HY)))
        good = ErrorAssignment({"a": 1e-3, "b": 1e-3})
        bad = ErrorAssignment({"a": 1e-3, "b": 1e308})
        with pytest.raises(PauliError) as alone:
            compile_sequence(seq, bad)
        with pytest.raises(PauliError) as stacked:
            compile_stack(seq, [good, bad, good])
        assert str(stacked.value) == str(alone.value) == "coefficient inf of Y is not finite"

    def test_bad_assignment_is_named_by_position(self):
        seq = bb1_w(0.5, HX, HY, "a", "b")
        points = [ErrorAssignment.uniform(["a", "b"], 1e-3), ErrorAssignment({"a": 1e-3})]
        with pytest.raises(CompileError, match="unassigned labels: b") as exc:
            compile_stack(seq, points)
        assert exc.value.point == 1

    def test_empty_stack(self):
        stack, defect = compile_stack(bb1_w(0.5, HX, HY, "a", "b"), [])
        assert stack.shape == (0, 2, 2) and defect == 0.0

    def test_cache_shared_by_one_and_several_points(self):
        # one-point entries are keyed on errors, stacked ones on tuples of them
        seq = bb1_w(0.5, HX, HY, "a", "b")
        points = [ErrorAssignment.uniform(["a", "b"], e) for e in (1e-3, 2e-3)]
        cache = CompileCache()
        alone = [compile_sequence(seq, p, cache).matrix.tobytes() for p in points]
        stack, _ = compile_stack(seq, points, cache)
        again = [compile_sequence(seq, p, cache).matrix.tobytes() for p in points]
        assert [m.tobytes() for m in stack] == alone == again


class TestCorrectionBlock:
    def test_zero_error_identity(self):
        phi = phi_of(math.pi / 3)
        seq = w_correction(phi, HX, HY, "a", "b")
        u = compile_sequence(seq, ErrorAssignment.zero(["a", "b"]))
        assert distance(evolve([(0.0, 0.0, HX)]), u, align_phase=True) < 1e-12

    def test_toggled_rewrite_matches(self):
        # the pi(1+eps), 2pi(1+eps) correction equals the product of the
        # error-only rotations with the middle axis reflected to -phi
        phi = phi_of(math.pi / 2)
        eps = 0.07
        orig = compile_sequence(
            w_correction(phi, HX, HY, "a", "b"),
            ErrorAssignment.uniform(["a", "b"], eps),
        )
        axis = lambda a: math.cos(a) * HX + math.sin(a) * HY
        toggled = (
            evolve([(math.pi * eps, 0.0, axis(phi))]).matrix
            @ evolve([(2 * math.pi * eps, 0.0, axis(-phi))]).matrix
            @ evolve([(math.pi * eps, 0.0, axis(phi))]).matrix
        )
        assert np.abs(orig.matrix - toggled).max() < 1e-12
