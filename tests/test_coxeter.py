from collections import Counter

import pytest

from klbasis.coxeter import (
    CoxeterMatrix,
    GroupTooLargeError,
    InfiniteTypeError,
    RankTooLargeError,
    build_group,
    group_from_name,
    preset_matrix,
)

from oracles import all_reduced_subwords

ORDERS = {
    "A1": (2, 1),
    "A2": (6, 3),
    "A3": (24, 6),
    "B2": (8, 4),
    "B3": (48, 9),
    "D4": (192, 12),
    "F4": (1152, 24),
    "H3": (120, 15),
    "I2(5)": (10, 5),
    "I2(2)": (4, 2),
    "I2(30)": (60, 30),
}


@pytest.mark.parametrize("name", sorted(ORDERS))
def test_preset_orders(groups, name):
    size, lw0 = ORDERS[name]
    g = groups(name)
    assert g.size == size
    assert g.lengths[g.w0] == lw0
    assert g.num_pos_roots == lw0
    assert g.lengths[0] == 0


def test_generator_action_involutive(groups):
    g = groups("B3")
    for x in range(g.size):
        for s in range(g.rank):
            assert g.lmult[g.lmult[x][s]][s] == x
            assert g.rmult[g.rmult[x][s]][s] == x
            assert abs(g.lengths[g.lmult[x][s]] - g.lengths[x]) == 1


def test_inverse_involution_preserves_length_swaps_descents(groups):
    for name in ("A3", "H3"):
        g = groups(name)
        for x in range(g.size):
            ix = g.inv[x]
            assert g.inv[ix] == x
            assert g.lengths[ix] == g.lengths[x]
            assert g.lmask[ix] == g.rmask[x]
            assert g.rmask[ix] == g.lmask[x]


def test_descent_definition(groups):
    g = groups("A3")
    for x in range(g.size):
        for s in range(g.rank):
            assert bool(g.lmask[x] >> s & 1) == (g.lengths[g.lmult[x][s]] < g.lengths[x])
            assert bool(g.rmask[x] >> s & 1) == (g.lengths[g.rmult[x][s]] < g.lengths[x])


def test_shortlex_ids_sorted_by_length_then_word(groups):
    g = groups("B3")
    words = [g.word(x) for x in range(g.size)]
    keys = [(len(w), w) for w in words]
    assert keys == sorted(keys)
    assert len(set(words)) == g.size


def test_word_roundtrip(groups):
    g = groups("H3")
    for x in range(g.size):
        assert g.element_of_word(g.word(x)) == x


@pytest.mark.parametrize("name", ["I2(2)", "I2(3)", "I2(6)", "I2(12)", "A3"])
def test_bruhat_against_subword_oracle(groups, name):
    g = groups(name)
    for y in range(g.size):
        below = all_reduced_subwords(g, y)
        for x in range(g.size):
            assert g.bruhat_leq(x, y) == (x in below)
        assert g.bruhat_mask(y) == sum(1 << x for x in below)


def test_bruhat_basics(groups):
    g = groups("H3")
    for y in range(0, g.size, 7):
        assert g.bruhat_leq(0, y)
        assert g.bruhat_leq(y, y)
        assert g.bruhat_leq(y, g.w0)


def test_dihedral_bruhat_is_length_order(groups):
    g = groups("I2(5)")
    for x in range(g.size):
        for y in range(g.size):
            expected = x == y or g.lengths[x] < g.lengths[y]
            assert g.bruhat_leq(x, y) == expected


def test_longest_element(groups):
    g = groups("A1")
    assert g.w0 == 1
    g = groups("I2(7)")
    assert g.lengths[g.w0] == 7
    g = groups("H3")
    w0 = g.w0
    assert g.lengths[w0] == 15
    full = (1 << g.rank) - 1
    assert g.lmask[w0] == full and g.rmask[w0] == full


def test_poincare_palindromic(groups):
    for name in ("A3", "B3", "H3", "F4"):
        g = groups(name)
        c = Counter(g.lengths)
        seq = [c[k] for k in range(max(c) + 1)]
        assert seq == seq[::-1]


def test_covers(groups):
    g = groups("A3")
    for y in range(g.size):
        expected = {
            x
            for x in all_reduced_subwords(g, y)
            if g.lengths[x] == g.lengths[y] - 1
        }
        assert set(g.covers(y)) == expected


def test_matrix_validation():
    with pytest.raises(ValueError):
        CoxeterMatrix([[1, 2], [3, 1]])  # not symmetric
    with pytest.raises(ValueError):
        CoxeterMatrix([[2]])  # bad diagonal
    with pytest.raises(RankTooLargeError):
        CoxeterMatrix([[1] * 9] * 9)


def test_matrix_from_text_builds_group():
    m = CoxeterMatrix.from_text("3\n5 2\n3\n")
    assert m == preset_matrix("H3")[0]
    g = build_group(m, "custom")
    assert g.size == 120


def test_infinite_type_rejected():
    with pytest.raises(InfiniteTypeError):
        build_group(CoxeterMatrix.from_upper_labels(3, [3, 3, 3]))  # affine A2
    with pytest.raises(InfiniteTypeError):
        build_group(CoxeterMatrix.chain(3, [4, 4]))  # affine C2
    with pytest.raises(InfiniteTypeError):
        build_group(CoxeterMatrix.chain(3, [5, 5]))  # hyperbolic


def test_group_size_cap():
    with pytest.raises(GroupTooLargeError):
        build_group(preset_matrix("B3")[0], max_size=10)


def test_unknown_preset():
    with pytest.raises(ValueError):
        preset_matrix("E8")
