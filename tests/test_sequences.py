"""Tests for the sequence builders and the memoizing compiler."""

import copy
import gc
import hashlib
import math
import pickle
import re
import weakref

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
    fit_slope,
    lift_j,
    lift_w,
    phi_of,
    substitute,
    w_correction,
    wj_chain,
)
from pulsecomp import pauli, sequences, unitary
from pulsecomp.encoded import heisenberg_coupling, heisenberg_logical, p3_bb1, p3_sequence

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

    @pytest.mark.parametrize(
        "theta",
        [10**400, -(10**400), True, False, "1", 1 + 0j, None, np.bool_(True)],
        ids=["huge-int", "huge-negative-int", "true", "false", "string", "complex", "none",
             "numpy-bool"],
    )
    def test_non_finite_or_non_real_theta_named(self, theta):
        expected = f"theta = {theta!r} is not finite or not a real number"
        with pytest.raises(SequenceError, match=f"^{re.escape(expected)}$"):
            phi_of(theta)

    @pytest.mark.parametrize("theta", [np.int64(3), 3, np.float32(0.5)], ids=str)
    def test_real_numbers_accepted(self, theta):
        assert phi_of(theta) == math.acos(-theta / (4.0 * math.pi))

    @pytest.mark.parametrize(
        "build",
        [
            lambda t: bb1_w(t, HX, HY, "a", "b"),
            lambda t: bb1_j(t, HX, HY, "a", "b"),
            p3_bb1,
            p3_sequence,
            lambda t: heisenberg_logical("z", t, corrected=True),
        ],
        ids=["bb1_w", "bb1_j", "p3_bb1", "p3_sequence", "heisenberg_logical"],
    )
    def test_builders_name_huge_theta(self, build):
        with pytest.raises(SequenceError, match=r"^theta = 1000\d* is not finite"):
            build(10**400)


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

    @pytest.mark.parametrize("bad", ["x", 1j, None, True, math.nan, math.inf, -math.inf, 10**400])
    def test_bad_angle_names_label(self, bad):
        with pytest.raises(SequenceError, match=r"^angle .* for label 'zz' is not a finite real"):
            Pulse((("a", 0.5, HX), ("zz", bad, HY)))

    @pytest.mark.parametrize("bad", [5, ["a"], None, b"a"], ids=repr)
    def test_non_string_label_rejected(self, bad):
        # checked before the intern lookup, so an unhashable label is named too
        with pytest.raises(SequenceError, match=r"^label .* is not a string$"):
            Pulse.single(bad, 1.0, HX)

    @pytest.mark.parametrize(
        "bad", ["X", 0.5, None, PauliString("X")], ids=["str", "float", "none", "pauli-string"]
    )
    def test_non_hamiltonian_term_rejected(self, bad):
        with pytest.raises(SequenceError, match=r"^term .* for label 'a' is not a Hamiltonian$"):
            Pulse.single("a", 1.0, bad)

    @pytest.mark.parametrize(
        "make, error",
        [
            (lambda: evolve([(1.0, 0.0, "X")]), PauliError),
            (lambda: unitary.matrix_of("X"), unitary.UnitaryError),
            (lambda: bb1_w(1.0, "X", HY, "a", "b"), SequenceError),
            (lambda: bb1_j(1.0, HX, "X", "a", "b"), SequenceError),
        ],
        ids=["evolve", "matrix_of", "bb1_w", "bb1_j"],
    )
    def test_non_hamiltonian_named(self, make, error):
        with pytest.raises(error, match=r"'X' is not a Hamiltonian$"):
            make()

    def test_short_term_rejected(self):
        with pytest.raises(SequenceError, match=r"^term \('a', 1.0\) is not a \(label, angle, Ham"):
            Pulse([("a", 1.0)])

    def test_non_collection_terms_rejected(self):
        with pytest.raises(SequenceError, match=r"^pulse terms 5 is not a collection$"):
            Pulse(5)

    def test_string_terms_rejected(self):
        # named whole, not as the term 'a'
        with pytest.raises(SequenceError, match=r"^pulse terms 'ab' is not a collection$"):
            Pulse("ab")

    def test_non_collection_items_rejected(self):
        with pytest.raises(SequenceError, match=r"^sequence items 5 is not a collection$"):
            PulseSequence(5)

    def test_string_items_rejected(self):
        with pytest.raises(SequenceError, match=r"^sequence items 'ab' is not a collection$"):
            PulseSequence("ab")

    @pytest.mark.parametrize("bad", [5, None, 0.5], ids=repr)
    def test_non_collection_groups_rejected(self, bad):
        with pytest.raises(SequenceError, match=rf"^required groups {bad!r} is not a collection$"):
            PulseSequence([Pulse.single("a", 1.0, HX)], required_groups=bad)

    def test_empty_sequence_rejected(self):
        with pytest.raises(SequenceError):
            PulseSequence(())

    @pytest.mark.parametrize(
        "bad", ["x", None, HX, ("a", 1.0, HX)], ids=["str", "none", "hamiltonian", "term"]
    )
    def test_bad_item_rejected(self, bad):
        with pytest.raises(SequenceError, match=r"^item .* is neither a Pulse nor a PulseSeq"):
            PulseSequence((Pulse.single("a", 1.0, HX), bad))

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
        assert ErrorAssignment([("a", 0.3)]).values == {"a": 0.3}

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: ErrorAssignment(5), r"^errors 5 are not a mapping of labels$"),
            (lambda: ErrorAssignment(None), r"^errors None are not a mapping of labels$"),
            (lambda: ErrorAssignment("ab"), r"^errors 'ab' are not a mapping of labels$"),
            # an empty string is named too, not taken as no errors
            (lambda: ErrorAssignment(""), r"^errors '' are not a mapping of labels$"),
            (lambda: ErrorAssignment([1, 2]), r"^errors \[1, 2\] are not a mapping of labels$"),
            (lambda: ErrorAssignment.uniform(5, 0.1), r"^labels 5 is not a collection$"),
            (lambda: ErrorAssignment.zero(None), r"^labels None is not a collection$"),
        ],
        ids=["int", "none", "string", "empty-string", "not-pairs", "uniform-int", "zero-none"],
    )
    def test_non_mapping_values_and_labels_named(self, make, message):
        with pytest.raises(CompileError, match=message):
            make()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected_with_label(self, bad):
        with pytest.raises(CompileError, match="'zz'"):
            ErrorAssignment({"a": 0.1, "zz": bad})

    @pytest.mark.parametrize("bad", ["x", 1j, None, True, False, np.bool_(True), 10**400])
    def test_non_number_rejected_with_label(self, bad):
        with pytest.raises(CompileError, match=r"^error .* for label 'zz' is not a finite real"):
            ErrorAssignment({"a": 0.1, "zz": bad})

    @pytest.mark.parametrize("bad", [5, None, ("a",)], ids=repr)
    def test_non_string_label_rejected(self, bad):
        with pytest.raises(CompileError, match=r"^label .* is not a string$"):
            ErrorAssignment({"a": 0.1, bad: 0.1})

    @pytest.mark.parametrize(
        "make", [ErrorAssignment.zero, lambda l: ErrorAssignment.uniform(l, 0.1)],
        ids=["zero", "uniform"],
    )
    def test_string_labels_rejected(self, make):
        with pytest.raises(CompileError, match=r"^labels must be a collection .* string 'X1'$"):
            make("X1")

    def test_real_numbers_accepted(self):
        e = ErrorAssignment({"a": 1, "b": np.float64(0.25), "c": -0.0})
        assert e.values == {"a": 1, "b": 0.25, "c": 0.0}

    def test_values_kept_as_floats(self):
        e = ErrorAssignment({"a": 1, "b": np.float64(0.25)}, groups=(frozenset({"b", "c"}),))
        assert [type(v) for v in e.values.values()] == [float, float, float]

    def test_conflict_message_prints_floats(self):
        values = {"X1": np.float64(-0.001), "Y1": np.float64(0.001)}
        with pytest.raises(CompileError) as info:
            ErrorAssignment(values, groups=(frozenset({"X1", "Y1"}),))
        assert str(info.value) == "group ['X1', 'Y1'] has conflicting errors [-0.001, 0.001]"

    @pytest.mark.parametrize("group", [("a", "b"), ["a", "b"], {"a", "b"}, frozenset("ab")])
    def test_groups_kept_as_frozensets(self, group):
        e = ErrorAssignment({"a": 0.1}, groups=(group,))
        assert e.groups == (frozenset({"a", "b"}),)
        assert e.resolve("b") == 0.1

    @pytest.mark.parametrize("group", ["X1ZZ", ("a", 1), [["a"]], 5, None])
    def test_bad_groups_rejected(self, group):
        with pytest.raises(CompileError, match=r"^group .* is not a collection of label strings$"):
            ErrorAssignment({"a": 0.1}, groups=(group,))

    @pytest.mark.parametrize("bad", [5, None, 0.5, "X1ZZ"], ids=repr)
    def test_non_collection_groups_rejected(self, bad):
        # a string is named whole, not as its first character's group
        with pytest.raises(CompileError, match=rf"^groups {bad!r} is not a collection$"):
            ErrorAssignment({"a": 0.1}, groups=bad)


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


def sk1_rows(theta):
    """SK1 (Brown, Harrow & Chuang, PRA 70, 052318 (2004)): theta, then 2 pi at -phi and phi."""
    phi = phi_of(theta)
    return ((theta, None), (2 * math.pi, -phi), (2 * math.pi, phi))


class TestLifts:
    """The lifts keep a single-qubit sequence's order on any su(2) pair."""

    @pytest.mark.parametrize("rows, order", [(sk1_rows, 4.0), (sequences._bb1_rows, 6.0)],
                             ids=["sk1", "bb1"])
    @pytest.mark.parametrize("lift", [lift_w, lift_j], ids=["w", "j"])
    @pytest.mark.parametrize("h1, h2", [(HZZ, HX1), (HX, HY), (HZZ, HY1)],
                             ids=["zz-x1", "x-y", "zz-y1"])
    @pytest.mark.parametrize("theta", [math.pi / 4, 1.3])
    def test_lifted_slope_is_single_qubit_order(self, rows, order, lift, h1, h2, theta):
        seq = lift(rows(theta), h1, h2, "a", "b")
        target = evolve([(theta, 0.0, h1)])
        eps = np.geomspace(1e-3, 1e-2, 6)
        # W: both controls share the error; J: the conjugating control is error free
        shared = lift is lift_w
        infid = [
            fidelity(target, compile_sequence(
                seq, ErrorAssignment({"a": e, "b": e if shared else 0.0}))).infidelity
            for e in eps
        ]
        assert fit_slope(eps, infid).exponent == pytest.approx(order, abs=0.2)

    def test_bare_row_is_the_l1_pulse(self):
        for lift in (lift_w, lift_j):
            assert lift(((0.0, None),), HX, HY, "a", "b").items == (Pulse.single("a", 0.0, HX),)

    @pytest.mark.parametrize("lift", [lift_w, lift_j], ids=["w", "j"])
    @pytest.mark.parametrize("a, p, value, label", [
        (True, 0.5, "True", "a"), (1.0, True, "True", "b"), (1.0, math.inf, "inf", "b"),
        (math.nan, 0.5, "nan", "a"), (1.0, "0.5", "'0.5'", "b"),
    ], ids=["bool-angle", "bool-phase", "inf-phase", "nan-angle", "string-phase"])
    def test_bad_rows_rejected_with_label(self, lift, a, p, value, label):
        with pytest.raises(SequenceError, match=rf"^(angle|phase) {value} for label '{label}' is not"):
            lift(((a, p),), HX, HY, "a", "b")

    def test_rows_map_to_their_pulses(self):
        w = lift_w(((2.0, 0.5),), HX, HY, "a", "b")
        assert w.items == (Pulse((("a", 2.0 * math.cos(0.5), HX), ("b", 2.0 * math.sin(0.5), HY))),)
        j = lift_j(((2.0, 0.5),), HX, HY, "a", "b")
        assert j.items == (Pulse.single("b", -0.5, HY), Pulse.single("a", 2.0, HX),
                           Pulse.single("b", 0.5, HY))


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

    def test_groups_interned_as_frozensets(self):
        items = (Pulse.single("a", 0.3, HX),)
        seq = PulseSequence(items, required_groups=(frozenset({"a", "b"}),))
        for group in (("a", "b"), ["b", "a"], {"a", "b"}):
            assert PulseSequence(items, required_groups=(group,)) is seq
        assert seq.required_groups == (frozenset({"a", "b"}),)

    @pytest.mark.parametrize("groups", [["X1ZZ"], "ab", [("a", 1)], [[["a"]]], [5]])
    def test_bad_groups_rejected(self, groups):
        # a string is named whole, as the collection; otherwise the bad group
        if isinstance(groups, str):
            match = rf"^required groups {groups!r} is not a collection$"
        else:
            match = r"^group .* is not a collection of label strings$"
        with pytest.raises(SequenceError, match=match):
            PulseSequence((Pulse.single("a", 0.3, HX),), required_groups=groups)

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


def dag_signature(seq: PulseSequence) -> str:
    """SHA-256 of a sharing-aware serialization of a sequence's DAG.

    One line per distinct node in post-order: a pulse's terms (label,
    ``float.hex`` angle, Hamiltonian), a block's child indices and its
    required groups (each sorted, in order).  A node reached twice is
    written once, so the digest pins the sharing as well as the values.
    """
    order: dict = {}
    lines = []

    def visit(item) -> int:
        if item not in order:
            if isinstance(item, Pulse):
                line = " ; ".join(f"{l} {t.hex()} {h}" for l, t, h in item.terms)
            else:
                kids = [visit(sub) for sub in item.items]
                line = f"{kids} {[sorted(g) for g in item.required_groups]}"
            order[item] = len(order)
            lines.append(line)
        return order[item]

    visit(seq)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


_DAG_ANGLES = (
    math.pi / 4, math.pi / 2, 1.0, -0.7, 3 * math.pi, -4 * math.pi, 4 * math.pi,
    0.0, -0.0, 1e-300,
)

_DAG_BUILDERS = {
    "bb1_w": lambda t: bb1_w(t, HZZ, HX1, "a", "b"),
    "bb1_j": lambda t: bb1_j(t, HZZ, HX1, "a", "b"),
    "bb1_wj": lambda t: bb1_wj(t, HZZ, HX1, HY1, "a", "b", "c"),
    "w_correction": lambda t: w_correction(phi_of(t), HX, HY, "a", "b"),
    "p3_bb1": p3_bb1,
    "heisenberg_logical": lambda t: heisenberg_logical("x", t, corrected=True),
}

# Digests of each builder's DAGs over _DAG_ANGLES (wj_chain: n = 1..4 at
# pi/4).  Any change to a builder's angles, Hamiltonians, labels, order or
# sharing changes them.
_DAG_DIGESTS = {
    "bb1_w": "56e2b3f5c9c2ce9e9525e51628e279a6a520eb2cfa01575030e7a66b58263fc5",
    "bb1_j": "0b1a602881926e161931b2e94e9c28e8368cb137d3073e91fb7c454e660421ee",
    "bb1_wj": "fcb50bd3729f5051a71f09f69bc69fad8c39c41805ebf6dd5b5da3096ad94226",
    "w_correction": "8d08fd783d928ebd495e5618cee86575af141658c7a87ddfea6b0b6055672fb8",
    "p3_bb1": "9847fc0d1c7567f71f1918d3d678d5bf90914f34cdb3aa4695c65e2ef1605682",
    "heisenberg_logical": "a7771513235af86b8df032087d5335a9236bc51139a07261355c339451c7beab",
    "wj_chain": "88710dd30a9fd7c5905d94a6704b14d1d53c6e1bd3e809f65a122a7cbb3beceb",
}


class TestDagStructure:
    @pytest.mark.parametrize("name", sorted(_DAG_BUILDERS))
    def test_builder_dags_pinned(self, name):
        build = _DAG_BUILDERS[name]
        signatures = [dag_signature(build(t)) for t in _DAG_ANGLES]
        assert hashlib.sha256(" ".join(signatures).encode()).hexdigest() == _DAG_DIGESTS[name]

    def test_chain_dags_pinned(self):
        signatures = [dag_signature(wj_chain(n, math.pi / 4)) for n in range(1, 5)]
        assert hashlib.sha256(" ".join(signatures).encode()).hexdigest() == _DAG_DIGESTS["wj_chain"]


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

    def test_non_string_label_rejected(self):
        seq = bb1_j(0.8, HZZ, HX1, "a", "b")
        with pytest.raises(SequenceError, match=r"^label \['a'\] is not a string$"):
            substitute(seq, ["a"], lambda x: PulseSequence((Pulse.single("a", x, HZZ),)))

    def test_pulse_rejected_as_sequence(self):
        with pytest.raises(SequenceError, match=r"^Pulse\(.*\) is not a PulseSequence$"):
            substitute(
                Pulse.single("a", 1.0, HX), "a", lambda x: PulseSequence((Pulse.single("a", x, HX),))
            )

    @pytest.mark.parametrize(
        "returned",
        [Pulse.single("b", 0.8, HX1), None, PulseSequence((Pulse.single("b", 0.8, HX),))],
        ids=["pulse", "none", "one-qubit-block"],
    )
    def test_builder_result_checked(self, returned, monkeypatch):
        compiles = []
        monkeypatch.setattr(sequences, "compile_sequence", lambda *a: compiles.append(a))
        seq = PulseSequence((Pulse.single("a", 0.3, HZZ), Pulse.single("b", -0.8, HX1)))
        expected = f"builder for 'b' at angle 0.8 returned {returned!r}, not a 2-qubit PulseSequence"
        with pytest.raises(SequenceError, match=f"^{re.escape(expected)}$"):
            substitute(seq, "b", lambda x: returned)
        assert compiles == [] and sequences._CHECK_CACHE.get() is None

    def test_simultaneous_pulse_rejected(self):
        seq = PulseSequence((Pulse((("a", 1.0, HX), ("b", 1.0, HY))),))
        with pytest.raises(SequenceError):
            substitute(seq, "a", lambda x: PulseSequence((Pulse.single("a", x, HX),)))

    def test_nested_input_substitutes_like_its_flattened_items(self):
        inner = PulseSequence(
            (Pulse.single("b", 0.4, HZZ), Pulse.single("a", -0.6, HX1)),
            required_groups=(frozenset({"a", "b"}),),
        )
        nested = PulseSequence((Pulse.single("a", 0.8, HX1), inner))
        builder = lambda x: bb1_w(x, HX1, HY1, "a", "c")
        sub = substitute(nested, "a", builder)
        flat = substitute(PulseSequence(nested.pulses), "a", builder)
        # the flat substitution's items, grouped as the input was
        regrouped = PulseSequence(
            (flat.items[0], PulseSequence(flat.items[1:], inner.required_groups))
        )
        assert sub is regrouped
        # the nesting only reassociates the product
        errs = ErrorAssignment({"a": 0.01, "b": -0.02, "c": 0.01})
        assert np.abs(
            compile_sequence(sub, errs).matrix - compile_sequence(flat, errs).matrix
        ).max() < 1e-14

    def test_rewrites_each_distinct_node_once(self, monkeypatch):
        seq = wj_chain(4, math.pi / 4)
        h = sequences._chain_hamiltonians(4)["ZZ12"]
        builder = lambda x: PulseSequence((Pulse.single("ZZ12", x, h),))
        distinct = len(seq._program[0])
        built = []
        real = PulseSequence.__new__
        monkeypatch.setattr(
            PulseSequence, "__new__", lambda cls, *a, **k: built.append(1) or real(cls, *a, **k)
        )
        sub = substitute(seq, "ZZ12", builder)
        # a walk along every path to a shared block would build one per path
        assert len(built) <= 2 * distinct
        assert sub.pulse_count == seq.pulse_count
        assert substitute(seq, "Q", builder) is seq

    def test_replacement_groups_merged_once(self):
        shared = frozenset({"a", "c"})
        own = frozenset({"b", "d"})

        def grouped(x):
            return PulseSequence(bb1_w(x, HX1, HY1, "a", "c").items, required_groups=(shared,))

        # three distinct magnitudes, each checked once, all carrying ``shared``
        seq = PulseSequence(
            (Pulse.single("a", 0.8, HX1), Pulse.single("a", -0.5, HX1), Pulse.single("a", 0.3, HX1)),
            required_groups=(own,),
        )
        assert substitute(seq, "a", grouped).required_groups == (own, shared)


class TestCheckDecision:
    """substitute's self-check decides, and reports, as ``distance`` does."""

    @settings(max_examples=60, deadline=None)
    @given(
        log_offset=st.floats(-12.0, -7.0),
        sign=st.sampled_from([-1.0, 1.0]),
        h=st.sampled_from([HX, HZZ, HX1 + HZZ]),
    )
    def test_tolerance_decided_as_distance(self, log_offset, sign, h):
        # a block off its pulse's angle by about the check's tolerance
        theta = 0.7319
        block = PulseSequence((Pulse.single("b", theta + sign * 10.0**log_offset, h),))
        seq = PulseSequence((Pulse.single("b", theta, h),))
        ideal = compile_sequence(block, ErrorAssignment.zero(block.labels))
        mismatch = distance(evolve([(theta, 0.0, h)]), ideal, align_phase=True)
        if mismatch > sequences._CHECK_TOL:
            with pytest.raises(SequenceError, match=re.escape(f"pulse by {mismatch:.3e}")):
                substitute(seq, "b", lambda x: block)
        else:
            assert substitute(seq, "b", lambda x: block) == PulseSequence((block,))


class TestProofMemo:
    """substitute proves an interned block once per (angle, H) while it lives."""

    @pytest.fixture
    def check_compiles(self, monkeypatch):
        calls = []
        real = sequences.compile_sequence
        monkeypatch.setattr(
            sequences, "compile_sequence", lambda *a, **k: calls.append(a[0]) or real(*a, **k)
        )
        return calls

    def test_rebuild_of_live_chain_makes_no_check_compile(self, check_compiles):
        gc.collect()
        seq = wj_chain(3, 0.5813)  # an angle no other test builds
        assert len(check_compiles) == 30
        del check_compiles[:]
        assert wj_chain(3, 0.5813) is seq
        assert check_compiles == []

    def test_each_pair_closure_tested_once(self, monkeypatch):
        calls = []
        real = sequences.unit_su2_partner
        monkeypatch.setattr(
            sequences, "unit_su2_partner", lambda h1, h2: calls.append((h1, h2)) or real(h1, h2)
        )
        sequences._closes_unit_su2.cache_clear()
        wj_chain(3, 0.5813)
        # (X1, Y1), then (ZZ12, X1), (X2, ZZ12), (ZZ23, X2) and (X3, ZZ23)
        assert len(calls) == len(set(calls)) == 5
        del calls[:]
        wj_chain(3, 0.5813)
        assert calls == []

    def test_closure_failure_raises_every_time(self):
        for _ in range(2):
            with pytest.raises(SequenceError, match="do not close as su"):
                bb1_w(0.5, HX, HX, "a", "b")

    def test_failed_check_raises_again(self, check_compiles):
        block = PulseSequence((Pulse.single("b", 0.31, HX1),))  # half the wanted angle
        seq = PulseSequence((Pulse.single("b", 0.62, HX1),))
        for _ in range(2):
            with pytest.raises(SequenceError, match="deviates from the ideal pulse"):
                substitute(seq, "b", lambda x: block)
        assert check_compiles == [block, block]
        assert block.__dict__.get("_proved", set()) == set()

    def test_proof_is_per_angle_and_hamiltonian(self, check_compiles):
        block = PulseSequence((Pulse.single("b", 0.83, HX1),))
        builder = lambda x: block
        substitute(PulseSequence((Pulse.single("b", 0.83, HX1),)), "b", builder)
        substitute(PulseSequence((Pulse.single("b", -0.83, HX1),)), "b", builder)
        assert check_compiles == [block]
        assert block._proved == {(0.83, HX1)}
        # the same block is not proved against another Hamiltonian ...
        with pytest.raises(SequenceError, match="deviates from the ideal pulse"):
            substitute(PulseSequence((Pulse.single("b", 0.83, HY1),)), "b", builder)
        # ... nor another angle
        with pytest.raises(SequenceError, match="deviates from the ideal pulse"):
            substitute(PulseSequence((Pulse.single("b", 0.84, HX1),)), "b", builder)
        assert check_compiles == [block] * 3
        assert block._proved == {(0.83, HX1)}

    def test_each_hamiltonian_of_a_label_checked(self):
        # one label on two Hamiltonians at one angle: the Y pulse's block is checked too
        seq = PulseSequence((Pulse.single("a", 0.8, HX1), Pulse.single("a", 0.8, HY1)))
        with pytest.raises(SequenceError, match="deviates from the ideal pulse"):
            substitute(seq, "a", lambda x: PulseSequence((Pulse.single("a", x, HX1),)))

    def test_proved_block_keeps_merging_groups(self):
        shared = frozenset({"a", "c"})
        block = PulseSequence(bb1_w(0.29, HX1, HY1, "a", "c").items, required_groups=(shared,))
        seq = PulseSequence((Pulse.single("a", 0.29, HX1),))
        for _ in range(2):
            assert substitute(seq, "a", lambda x: block).required_groups == (shared,)


class TestCheckCompile:
    """A self-check's compile multiplies the blocks its cache lacks from their items."""

    def test_check_compiles_ask_as_the_walk_and_derive_no_program(self, monkeypatch):
        caches, asked, compiles = [], [], []

        class Recording(CompileCache):
            def __init__(self):
                super().__init__()
                caches.append(self)

            def get(self, key):
                mat = super().get(key)
                asked.append((key[0], mat is not None))
                return mat

        real = sequences.compile_sequence

        def compile_recorded(seq, errors, cache=None):
            start = len(asked)
            out = real(seq, errors, cache)
            compiles.append((seq, asked[start:], "_program" in seq.__dict__))
            return out

        monkeypatch.setattr(sequences, "CompileCache", Recording)
        monkeypatch.setattr(sequences, "compile_sequence", compile_recorded)
        # a chain-like nesting on labels no other test uses, so every block is new
        inner = lambda x: bb1_w(x, HX1, HY1, "p", "q")
        outer = lambda x: substitute(bb1_j(x, HZZ, HX1, "r", "p"), "p", inner)
        substitute(bb1_j(0.4187, Hamiltonian.single(0.5, "IX"), HZZ, "s", "r"), "r", outer)
        (cache,) = caches
        below_root = 0
        for block, traffic, derived in compiles:
            nodes = [node for node, _ in traffic]
            missed = [node for node, hit in traffic if not hit]
            # the recursion's traffic: the root, then the block items of each
            # block the cache lacks, each once, and nothing below a hit
            assert not derived and nodes[0] is block and missed[0] is block
            assert len(set(nodes)) == len(nodes)
            items = {it for m in missed for it in m.items if isinstance(it, PulseSequence)}
            assert set(nodes) == {block} | items
            below_root += len(missed) > 1
            zero = dict.fromkeys(block.labels, 0.0)
            for node in missed:  # each multiplied block, put at the recursion's bits
                mat = cache._store[(node, tuple((0.0,) for _ in node.labels))]
                assert mat.tobytes() == reference_matrix(node, zero, {}).tobytes()
        assert (len(compiles), below_root) == (6, 2)


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

    @pytest.mark.parametrize(
        "n", [True, False, 2.0, "2", None, np.float64(2.0), np.bool_(True)],
        ids=["true", "false", "float", "string", "none", "numpy-float", "numpy-bool"],
    )
    def test_non_integer_length_named(self, n):
        expected = f"chain length n must be an integer >= 1, got {n!r}"
        for call in (lambda: chain_labels(n), lambda: wj_chain(n, 0.5)):
            with pytest.raises(SequenceError, match=f"^{re.escape(expected)}$"):
                call()

    def test_numpy_int_length_accepted(self):
        assert chain_labels(np.int64(2)) == chain_labels(2)
        assert wj_chain(np.int64(2), 0.5) is wj_chain(2, 0.5)


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

    def test_cache_reused_across_calls(self, monkeypatch):
        seq = wj_chain(2, math.pi / 4)
        errors = ErrorAssignment.uniform(seq.labels, 1e-3)
        real, calls = unitary._Synthesis.unitaries, []
        monkeypatch.setattr(
            unitary._Synthesis,
            "unitaries",
            lambda plan, points: calls.append(points) or real(plan, points),
        )
        cache = CompileCache()
        compile_sequence(seq, errors, cache)
        # repeated pulses and blocks are synthesized once per call ...
        assert 0 < len(calls) < seq.pulse_count
        del calls[:]
        # ... and not at all by a later call sharing the cache
        compile_sequence(seq, errors, cache)
        assert calls == []

    def test_cache_traffic(self):
        class Counting(CompileCache):
            def __init__(self):
                super().__init__()
                self.gets = self.puts = 0

            def get(self, key):
                self.gets += 1
                return super().get(key)

            def put(self, key, value):
                self.puts += 1
                super().put(key, value)

        seq = bb1_wj(math.pi / 2, HZZ, HX1, HY1, "ZZ", "X1", "Y1")
        assert len(seq._program[0]) == 20
        cache = Counting()
        traffic = []
        for zz in (1e-3, 1e-3, 2e-3):
            cache.gets = cache.puts = 0
            compile_sequence(seq, ErrorAssignment({"ZZ": zz, "X1": 1e-2, "Y1": 1e-2}), cache)
            traffic.append((cache.gets, cache.puts))
        # only the root is asked about and put, never one of the other 19
        # nodes: cold, it misses and is put; repeated, it hits; at a new ZZ
        # error, it misses and is put again
        assert traffic == [(1, 1), (1, 0), (1, 1)]

    def test_cache_holds_blocks_only(self):
        class Recording(CompileCache):
            def __init__(self):
                super().__init__()
                self.asked = []

            def get(self, key):
                self.asked.append(key[0])
                return super().get(key)

        seq = wj_chain(2, math.pi / 4)
        errors = ErrorAssignment.uniform(seq.labels, 1e-3)
        cache = Recording()
        compiled = compile_sequence(seq, errors, cache)
        # a needed pulse is synthesized, never looked up or stored
        assert cache._store and all(isinstance(node, PulseSequence) for node, _ in cache._store)
        assert all(isinstance(node, PulseSequence) for node in cache.asked)
        assert compiled.matrix.tobytes() == compile_sequence(seq, errors).matrix.tobytes()

    def test_program_does_not_keep_sequence_alive(self):
        seq = wj_chain(2, math.pi / 4)
        cache = CompileCache()
        compile_sequence(seq, ErrorAssignment.uniform(seq.labels, 1e-3), cache)
        assert seq._program[0][-1] is seq
        ref = weakref.ref(seq)
        del cache, seq
        gc.collect()
        assert ref() is None

    def test_dropped_dag_leaves_intern_tables_in_one_collection(self):
        gc.collect()
        before = len(sequences._SEQUENCES), len(sequences._PULSES)
        seq = wj_chain(2, 0.7123)  # an angle no other test builds
        compile_sequence(seq, ErrorAssignment.uniform(seq.labels, 1e-3))
        assert len(sequences._SEQUENCES) > before[0]
        assert len(sequences._PULSES) > before[1]
        # the blocks substitute proved keep their record, which keeps none alive
        proved = [
            weakref.ref(node)
            for node in seq._program[0]
            if isinstance(node, PulseSequence) and node.__dict__.get("_proved")
        ]
        assert len(proved) == 6
        del seq
        gc.collect()
        assert (len(sequences._SEQUENCES), len(sequences._PULSES)) == before
        assert [ref() for ref in proved] == [None] * 6

    def test_cache_key_includes_errors(self):
        seq = bb1_w(0.5, HX, HY, "a", "b")
        cache = CompileCache()
        u1 = compile_sequence(seq, ErrorAssignment.uniform(["a", "b"], 0.01), cache)
        u2 = compile_sequence(seq, ErrorAssignment.uniform(["a", "b"], 0.02), cache)
        assert np.abs(u1.matrix - u2.matrix).max() > 0


class TestCompileInputs:
    """A compile input of the wrong type raises a CompileError before any synthesis."""

    SEQ = bb1_w(0.5, HX, HY, "a", "b")
    GOOD = ErrorAssignment.uniform(["a", "b"], 1e-3)

    @pytest.fixture
    def synthesized(self, monkeypatch):
        """The rows synthesized, one at a time or as a plan's stack."""
        calls = []
        for name in ("unitary", "unitaries"):
            real = getattr(unitary._Synthesis, name)
            monkeypatch.setattr(
                unitary._Synthesis,
                name,
                lambda plan, rows, real=real: calls.append(rows) or real(plan, rows),
            )
        return calls

    def test_mapping_as_errors_rejected(self, synthesized):
        with pytest.raises(
            CompileError, match=r"^point 0, \{'a': 0\.1\}, is not an ErrorAssignment$"
        ) as exc:
            compile_sequence(self.SEQ, {"a": 0.1})
        assert exc.value.point == 0 and synthesized == []

    def test_mapping_as_point_rejected(self, synthesized):
        with pytest.raises(
            CompileError, match=r"^point 1, \{'a': 0\.1\}, is not an ErrorAssignment$"
        ) as exc:
            compile_stack(self.SEQ, [self.GOOD, {"a": 0.1}, self.GOOD])
        assert exc.value.point == 1 and synthesized == []

    def test_assignment_as_points_rejected(self, synthesized):
        message = r"^points ErrorAssignment\(.*\) is not a collection$"
        with pytest.raises(CompileError, match=message):
            compile_stack(self.SEQ, self.GOOD)
        assert synthesized == []

    @pytest.mark.parametrize(
        "seq", [Pulse.single("a", 0.3, HX), "x"], ids=["pulse", "string"]
    )
    def test_non_sequence_rejected(self, synthesized, seq):
        message = f"^{re.escape(repr(seq))} is not a PulseSequence$"
        with pytest.raises(CompileError, match=message):
            compile_sequence(seq, self.GOOD)
        with pytest.raises(CompileError, match=message):
            compile_stack(seq, [self.GOOD])
        assert synthesized == []

    def test_non_cache_rejected(self, synthesized):
        with pytest.raises(CompileError, match=r"^cache \{\} is not a CompileCache$"):
            compile_sequence(self.SEQ, self.GOOD, cache={})
        assert synthesized == []


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
        # one pulse whose points go non-finite on different words: the stack
        # names the first bad point's first bad word, point before word
        xy = PulseSequence((Pulse((("a", 4.0, HX), ("b", 4.0, HY))),))
        bad_x = ErrorAssignment({"a": -1e308, "b": 1e-3})
        bad_y = ErrorAssignment({"a": 1e-3, "b": 1e308})
        bad_xy = ErrorAssignment({"a": 1e308, "b": 1e308})
        for points in ([good, bad_y, bad_x], [bad_x, good, bad_y], [good, bad_xy, bad_y]):
            messages = []
            for p in (p for p in points if p is not good):
                with pytest.raises(PauliError) as alone:
                    compile_sequence(xy, p)
                messages.append(str(alone.value))
            with pytest.raises(PauliError) as stacked:
                compile_stack(xy, points)
            assert str(stacked.value) == messages[0] != messages[1]

    def test_bad_assignment_is_named_by_position(self):
        seq = bb1_w(0.5, HX, HY, "a", "b")
        points = [ErrorAssignment.uniform(["a", "b"], 1e-3), ErrorAssignment({"a": 1e-3})]
        with pytest.raises(CompileError, match="unassigned labels: b") as exc:
            compile_stack(seq, points)
        assert exc.value.point == 1

    def test_empty_stack(self):
        stack, defect = compile_stack(bb1_w(0.5, HX, HY, "a", "b"), [])
        assert stack.shape == (0, 2, 2) and defect == 0.0

    @pytest.mark.parametrize(
        "seq, points, rows_per_pulse",
        [
            # repeated points, 0.0 and -0.0 among them
            (
                bb1_w(0.5, HX, HY, "a", "b"),
                [ErrorAssignment.uniform(["a", "b"], e) for e in (1e-3, 0.0, 1e-3, -0.0, 2e-3)],
                {3},
            ),
            # one label held fixed while the other varies, as in a fixed-eps2 grid
            (
                bb1_j(0.5, HZZ, HX1, "a", "b"),
                [ErrorAssignment({"a": e, "b": 1e-2}) for e in (1e-4, 1e-3, 1e-2)],
                {1, 3},
            ),
            # two pulses of one plan whose rows agree at some points and not at others
            (
                PulseSequence((Pulse.single("a", 0.5, HX), Pulse.single("b", 0.5, HX))),
                [ErrorAssignment({"a": 1e-3, "b": b}) for b in (1e-3, 2e-3, 1e-3)]
                + [ErrorAssignment({"a": 2e-3, "b": 2e-3})],
                {2},
            ),
        ],
        ids=["repeated-points", "fixed-label", "shared-rows"],
    )
    def test_each_distinct_scale_row_synthesized_once(
        self, monkeypatch, seq, points, rows_per_pulse
    ):
        alone = [compile_sequence(seq, p).matrix.tobytes() for p in points]
        real, calls = unitary._Synthesis.unitaries, []
        monkeypatch.setattr(
            unitary._Synthesis,
            "unitaries",
            lambda plan, rows: calls.append((plan, rows)) or real(plan, rows),
        )
        stack, _ = compile_stack(seq, points)
        synthesized = [(plan, tuple(row)) for plan, rows in calls for row in rows]
        assert len(set(synthesized)) == len(synthesized)
        # a pulse whose errors agree at every point is synthesized once: each
        # plan synthesizes each distinct row among its pulses' rows once,
        # whichever pulses and points share it
        distinct = {}
        for pulse in set(seq.pulses):
            plan = unitary._synthesis(tuple(h for _, _, h in pulse.terms))
            distinct[pulse] = {
                (plan, tuple(theta * (1.0 + p.values[l]) for l, theta, _ in pulse.terms))
                for p in points
            }
        assert {len(rows) for rows in distinct.values()} == rows_per_pulse
        assert set(synthesized) == set().union(*distinct.values())
        assert [m.tobytes() for m in stack] == alone

    def test_constant_blocks_multiplied_at_one_point(self, monkeypatch):
        # a fixed-eps2 grid: only ZZ varies, so the four corrected X1/Y1
        # blocks (16 of the 26 block products) are the same at every point
        seq = bb1_wj(math.pi / 2, HZZ, HX1, HY1, "ZZ", "X1", "Y1")
        points = [
            ErrorAssignment({"ZZ": e, "X1": 1e-2, "Y1": 1e-2})
            for e in np.logspace(-4, -1, 9).tolist()
        ]
        products = record_products(monkeypatch)
        stack, _ = compile_stack(seq, points)
        # the four constant blocks in one stack of four, their 16 child
        # products at one point, then the root's 10 at the nine points
        assert products == [(4, 4), (9, 10)]
        assert [m.tobytes() for m in stack] == [
            compile_sequence(seq, p).matrix.tobytes() for p in points
        ]

    def test_overflowing_square_names_words(self):
        # angle 1e308 at zero error: the coefficient 5e307 is finite, its square is not
        seq = PulseSequence((Pulse.single("a", 0.5, HX), Pulse.single("b", 1e308, HY)))
        with pytest.raises(PauliError, match=r"^A\^2 of words Y overflows$"):
            compile_sequence(seq, ErrorAssignment.zero(["a", "b"]))
        # a plan of _ARRAY_ROWS or more distinct rows with one overflowing row
        seq = PulseSequence((Pulse.single("a", 0.5, HX), Pulse.single("b", 4.0, HY)))
        points = [ErrorAssignment({"a": 1e-3, "b": 1e-3 * k}) for k in range(unitary._ARRAY_ROWS)]
        points.insert(3, ErrorAssignment({"a": 1e-3, "b": 1e307}))
        with pytest.raises(PauliError, match=r"^A\^2 of words Y overflows$"):
            compile_stack(seq, points)

    @pytest.mark.parametrize(
        "b, c, message",
        [
            # the square of Y's coefficient 2e307 overflows, so its cos raises
            (1e307, 0.0, r"^A\^2 of words Y overflows$"),
            # Y's coefficient is inf - inf: a nan row that fails its chunk's check
            (1e308, 1e308, r"^coefficient nan of Y is not finite$"),
        ],
        ids=["overflow", "nan"],
    )
    def test_bad_row_in_a_later_chunk_raises_as_alone(self, monkeypatch, b, c, message):
        # four rows per chunk at d = 2: the 12 distinct rows of the (Y, Y)
        # pulse span three chunks, and the bad row, the tenth, is in the third
        monkeypatch.setattr(unitary, "_CHUNK_ENTRIES", 4 * 2 * 2)
        seq = PulseSequence(
            (Pulse.single("a", 0.5, HX), Pulse((("b", 4.0, HY), ("c", -4.0, HY))))
        )
        points = [ErrorAssignment({"a": 1e-3, "b": 1e-3 * k, "c": 0.0}) for k in range(11)]
        points.insert(9, ErrorAssignment({"a": 1e-3, "b": b, "c": c}))
        with pytest.raises(PauliError, match=message):
            compile_sequence(seq, points[9])
        chunks = []  # the rows of each stack that unitary's checks see
        real = unitary.check_unitary
        monkeypatch.setattr(
            unitary, "check_unitary", lambda m: (m.ndim == 3 and chunks.append(len(m))) or real(m)
        )
        with pytest.raises(PauliError, match=message):
            compile_stack(seq, points)
        # the overflow raises before any chunk; the nan row fails the third chunk's check
        assert chunks == ([] if c == 0.0 else [4, 4, 4])

    def test_non_finite_raises_first_pulse_in_walk_order(self):
        # plan (HX,) is met first, but its bad pulse follows plan (HY,)'s
        seq = PulseSequence(
            (Pulse.single("a", 0.5, HX), Pulse.single("b", 4.0, HY), Pulse.single("c", 4.0, HX))
        )
        good = ErrorAssignment({"a": 1e-3, "b": 1e-3, "c": 1e-3})
        bad = ErrorAssignment({"a": 1e-3, "b": 1e308, "c": -1e308})
        worse = ErrorAssignment({"a": 1e-3, "b": -1e308, "c": 1e308})
        for points, message in (
            ([bad], "coefficient inf of Y is not finite"),
            ([good, bad, worse], "coefficient inf of Y is not finite"),
            ([worse, bad], "coefficient -inf of Y is not finite"),
        ):
            with pytest.raises(PauliError) as stacked:
                compile_stack(seq, points)
            assert str(stacked.value) == message
        with pytest.raises(PauliError, match="coefficient inf of Y"):
            compile_sequence(seq, bad)


def reference_matrix(item, values, memo=None):
    """The compile product by plain recursion: ``evolve`` per pulse, later
    items on the left of a product that starts from the identity.  A
    ``memo`` dict keeps each distinct node's matrix at these values, so a
    deep DAG costs its distinct nodes."""
    if memo is not None and item in memo:
        return memo[item]
    if isinstance(item, Pulse):
        mat = evolve([(theta, values[l], h) for l, theta, h in item.terms]).matrix
    else:
        mat = np.eye(2**item.n_qubits, dtype=complex)
        for sub in item.items:
            mat = reference_matrix(sub, values, memo) @ mat
    if memo is not None:
        memo[item] = mat
    return mat


@st.composite
def dag_compiles(draw):
    """A two-qubit DAG with eigh-path (XX + YY) and closed-form pulses, a
    shared sub-block and its inverse inside a larger block, and 1-5
    assignments, repeats, 0.0 and -0.0 among them."""
    hams = [Hamiltonian.single(0.5, "XX") + Hamiltonian.single(0.5, "YY"), HZZ, HX1, HY1]
    theta = st.sampled_from([0.0, -0.0, math.pi, -math.pi / 2]) | st.floats(-7.0, 7.0)

    def pulse():
        n = draw(st.integers(1, 2))
        return Pulse(
            [(draw(st.sampled_from("abc")), draw(theta), draw(st.sampled_from(hams))) for _ in range(n)]
        )

    pulses = [pulse() for _ in range(draw(st.integers(1, 4)))]
    inner = PulseSequence(draw(st.lists(st.sampled_from(pulses), min_size=1, max_size=3)))
    nodes = [*pulses, inner, inner.inverse()]
    outer = PulseSequence(draw(st.lists(st.sampled_from(nodes), min_size=1, max_size=4)))
    seq = PulseSequence(
        draw(st.lists(st.sampled_from([*nodes, outer, outer.inverse()]), min_size=1, max_size=6))
    )
    eps = st.sampled_from([0.0, -0.0, 1e-3, -0.25]) | st.floats(-0.5, 0.5)
    distinct = [
        ErrorAssignment({l: draw(eps) for l in seq.labels}) for _ in range(draw(st.integers(1, 3)))
    ]
    points = draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=5))
    return seq, points


class TestWalk:
    """The compile walk is, byte for byte, the plain recursion over ``evolve``."""

    @settings(max_examples=120, deadline=None)
    @given(dag_compiles())
    def test_walk_equals_reference_recursion(self, case):
        seq, points = case
        expected = [reference_matrix(seq, p.values).tobytes() for p in points]
        shared = CompileCache()
        for p, want in zip(points, expected):
            assert compile_sequence(seq, p).matrix.tobytes() == want
            assert compile_sequence(seq, p, shared).matrix.tobytes() == want
        stack, _ = compile_stack(seq, points)
        assert [m.tobytes() for m in stack] == expected


# the sequences the schedule tests compile, built once and kept alive, at an
# angle no other test builds (the liveness tests need theirs to be dropped)
SCHEDULED = {
    "bb1_w": bb1_w(0.5772, HX, HY, "a", "b"),
    "bb1_j": bb1_j(0.5772, HZZ, HX1, "a", "b"),
    "bb1_wj": bb1_wj(0.5772, HZZ, HX1, HY1, "a", "b", "c"),
    "wj_chain(2)": wj_chain(2, 0.5772),
    "wj_chain(3)": wj_chain(3, 0.5772),
}


def grouped(seq, values):
    """An ErrorAssignment of values whose required groups share their first label's error."""
    values = dict(values)
    for group in seq.required_groups:
        values.update(dict.fromkeys(group, values[min(group)]))
    return ErrorAssignment(values)


@st.composite
def scheduled_compiles(draw):
    """One of the SCHEDULED sequences, 1-5 points drawn from 1-3 assignments
    (repeats, 0.0 and -0.0 among them), and an earlier assignment that
    differs from the first point in one label's error."""
    seq = SCHEDULED[draw(st.sampled_from(sorted(SCHEDULED)))]
    labels = sorted(seq.labels)
    eps = st.sampled_from([0.0, -0.0, 1e-3, -2e-2]) | st.floats(-0.2, 0.2)
    distinct = [
        grouped(seq, {l: draw(eps) for l in labels}) for _ in range(draw(st.integers(1, 3)))
    ]
    points = draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=5))
    earlier = grouped(seq, {**points[0].values, draw(st.sampled_from(labels)): draw(eps)})
    return seq, points, earlier


def post_order(seq):
    """The distinct nodes of seq, each after its items, first visits first."""
    order = {}

    def visit(item):
        if item not in order:
            for sub in getattr(item, "items", ()):
                visit(sub)
            order[item] = len(order)

    visit(seq)
    return list(order)


def record_unitaries(monkeypatch):
    """Wrap ``_Synthesis.unitaries``; the list it returns gets each call's (plan, rows)."""
    calls, real = [], unitary._Synthesis.unitaries
    monkeypatch.setattr(
        unitary._Synthesis,
        "unitaries",
        lambda plan, rows: calls.append((plan, np.array(rows))) or real(plan, rows),
    )
    return calls


class TestSchedule:
    """The walk synthesizes from the program's arrays, byte for byte the plain recursion."""

    @settings(max_examples=60, deadline=None)
    @given(scheduled_compiles())
    def test_schedule_equals_reference_recursion(self, case):
        seq, points, earlier = case
        expected = [reference_matrix(seq, p.values, {}).tobytes() for p in points]
        for p, want in zip(points, expected):
            warmed = CompileCache()
            compile_sequence(seq, earlier, warmed)  # only part of the pulses stay needed
            for cache in (None, CompileCache(), warmed):
                assert compile_sequence(seq, p, cache).matrix.tobytes() == want
        stack, _ = compile_stack(seq, points)
        assert [m.tobytes() for m in stack] == expected

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warmed"])
    def test_one_call_per_plan_with_its_needed_pulses(self, monkeypatch, warm):
        seq = SCHEDULED["wj_chain(3)"]
        labels = sorted(seq.labels)
        values = {l: 1e-3 * (k + 1) for k, l in enumerate(labels)}
        cache = CompileCache()
        if warm:  # the cache holds the root at other errors, which a miss never reads
            compile_sequence(seq, ErrorAssignment({**values, "ZZ23": 0.5}), cache)
        expected = {}  # plan -> its pulses' rows, in post-order: a miss needs them all
        for p in post_order(seq):
            if isinstance(p, Pulse):
                expected.setdefault(tuple(h for _, _, h in p.terms), []).append(
                    [theta * (1.0 + values[l]) for l, theta, _ in p.terms]
                )
        calls = record_unitaries(monkeypatch)
        got = compile_sequence(seq, ErrorAssignment(values), cache)
        assert len(calls) == len(expected) == 6
        assert {plan.hams: rows.tobytes() for plan, rows in calls} == {
            hams: np.array(rows).tobytes() for hams, rows in expected.items()
        }
        assert sum(len(rows) for rows in expected.values()) == 139
        assert got.matrix.tobytes() == reference_matrix(seq, values, {}).tobytes()

    def test_root_hit_synthesizes_nothing(self, monkeypatch):
        seq = SCHEDULED["wj_chain(3)"]
        errors = ErrorAssignment({l: 1e-3 * (k + 1) for k, l in enumerate(sorted(seq.labels))})
        cache = CompileCache()
        first = compile_sequence(seq, errors, cache)
        calls = record_unitaries(monkeypatch)
        assert compile_sequence(seq, errors, cache).matrix.tobytes() == first.matrix.tobytes()
        assert calls == []

    def test_point_loop_keeps_one_entry_per_assignment(self):
        seq = SCHEDULED["wj_chain(2)"]
        labels = sorted(seq.labels)
        points = [
            grouped(seq, {l: e * (k + 1) for k, l in enumerate(labels)})
            for e in (1e-3, 2e-3, -0.0, 1e-3, 0.0, 2e-3, 4e-2)
        ]
        cache = CompileCache()
        for p in points:
            compile_sequence(seq, p, cache)
        # one entry per distinct assignment: the repeats hit, and 0.0 and
        # -0.0 are one key, as they give equal scales
        assert set(cache._store) == {(seq, tuple((p.values[l],) for l in labels)) for p in points}
        assert len(cache._store) == 4


def record_products(monkeypatch):
    """Wrap ``sequences._product``; the list it returns gets each call's
    (rows, children): rows is 1 for (d, d) items, else the length of their
    stack, which at one point is the number of blocks multiplied together."""
    calls, real = [], sequences._product

    def product(mats, d):
        out = real(mats, d)
        calls.append((len(out) if out.ndim == 3 else 1, len(mats)))
        return out

    monkeypatch.setattr(sequences, "_product", product)
    return calls


class TestLevels:
    """Each level's constant blocks are multiplied together, at the bits of one at a time."""

    def test_chain_levels(self):
        levels = wj_chain(3, 0.6183)._program[4]
        # (child count, blocks) by height: the bb1_w blocks, then one skeleton per nesting
        assert [(k, len(blocks)) for k, blocks in levels] == [
            (4, 32), (10, 16), (10, 8), (10, 4), (10, 1)
        ]
        assert levels[-1][1] == (199,)  # the root is alone at the top

    def test_one_point_chain_multiplied_per_level(self, monkeypatch):
        seq = wj_chain(3, 0.6183)
        errors = ErrorAssignment.uniform(seq.labels, 1e-3)
        calls = record_products(monkeypatch)
        compile_sequence(seq, errors)
        # one stacked product per level and chunk: a chunk's k children and
        # two running products of 64 entries each stay within 2**13 entries,
        # so 21 blocks of 4 children fit one and 10 blocks of 10; the root
        # is alone
        assert calls == [(21, 4), (11, 4), (10, 10), (6, 10), (8, 10), (4, 10), (1, 10)]
        assert all(b * (k + 2) * 64 <= unitary._CHUNK_ENTRIES for b, k in calls)
        assert sum(b for b, _ in calls) == 61

    def test_stack_starts_from_the_identity(self, monkeypatch):
        # a ZZ pulse past half a turn has -0.0 entries, which the identity
        # start of the product turns to +0.0, as it does one block at a time
        blocks = [PulseSequence([Pulse.single("a", t, HZZ)]) for t in (-7.0, -6.5, -6.0)]
        seq = PulseSequence([*blocks, Pulse.single("b", 0.5, HX1)])
        errors = ErrorAssignment({"a": 0.0, "b": 0.0})
        zz = evolve([(-7.0, 0.0, HZZ)]).matrix.real
        assert np.signbit(zz[zz == 0.0]).all()
        calls = record_products(monkeypatch)
        cache = CompileCache()
        compile_sequence(seq, errors, cache)
        assert calls == [(3, 1), (1, 4)]
        for (block, _), mat in cache._store.items():
            assert mat.tobytes() == reference_matrix(block, errors.values).tobytes()

    @pytest.mark.parametrize(
        "budget, chunks",
        [
            # 6 blocks of 4 children or 3 of 10 per chunk: every level spans
            # several, and a last chunk of one or two is multiplied alone
            (
                3 * 12 * 64,
                [(6, 4)] * 5 + [(1, 4)] * 2 + [(3, 10)] * 5 + [(1, 10)]
                + [(3, 10)] * 2 + [(1, 10)] * 2 + [(3, 10), (1, 10), (1, 10)],
            ),
            # two blocks of 4 children per chunk: fewer than three fit, so none is stacked
            (3 * 6 * 64 - 1, [(1, 4)] * 32 + [(1, 10)] * 29),
        ],
        ids=["several-chunks", "two-block-chunks"],
    )
    def test_small_chunks_keep_bytes(self, monkeypatch, budget, chunks):
        seq = wj_chain(3, 0.6183)
        # X1/Y1 fixed while the rest vary: in the stack the bb1_w level is
        # constant and the levels above it vary
        points = [
            ErrorAssignment({**dict.fromkeys(seq.labels, e), "X1": 2e-3, "Y1": 2e-3})
            for e in (1e-3, -0.0, 4e-2, 1e-3)
        ]

        def compiled():
            out = [compile_sequence(seq, p).matrix.tobytes() for p in points]
            cache = CompileCache()
            out += [compile_sequence(seq, p, cache).matrix.tobytes() for p in points]
            return out + [m.tobytes() for m in compile_stack(seq, points)[0]]

        monkeypatch.setattr(unitary, "_CHUNK_ENTRIES", 0)  # no chunk holds a block
        one_at_a_time = compiled()
        monkeypatch.setattr(unitary, "_CHUNK_ENTRIES", budget)
        calls = record_products(monkeypatch)
        compile_sequence(seq, points[0])
        assert calls == chunks
        assert all(b * (k + 2) * 64 <= budget for b, k in calls if b > 1)
        assert compiled() == one_at_a_time


# numpy must do a stacked or broadcast matmul as the 2-D matmul of each slice,
# bit for bit: the compile walk multiplies blocks in stacks and one at a time
@pytest.mark.parametrize("d", range(2, 33))
def test_stacked_matmul_is_per_slice_matmul(d):
    rng = np.random.default_rng(d)
    shape = (64, 3, d, d)
    a, b = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(2))
    for batch in range(1, 65):
        x, y = a[:batch, 0], b[:batch, 0]  # contiguous (B, d, d)
        view = a[:batch, 1]  # a child position of a gathered stack: strided batch
        fixed = b[0, 2]  # one (d, d) matrix broadcast against the batch
        for left, right in ((x, y), (view, y), (x, fixed), (fixed, y), (view, fixed)):
            got = left @ right
            for s in range(batch):
                one = (left if left.ndim == 2 else left[s]) @ (right if right.ndim == 2 else right[s])
                assert got[s].tobytes() == one.tobytes(), (d, batch, s)


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
