import hashlib
import itertools
import json
import random
import time
from collections import Counter

import numpy as np
import pytest

from klbasis import coxeter
from klbasis.coxeter import (
    CoxeterMatrix,
    GroupTooLargeError,
    InfiniteTypeError,
    RankTooLargeError,
    _coset_table,
    build_group,
    group_from_name,
    group_order,
    preset_matrix,
)

from oracles import (
    all_reduced_subwords,
    bruhat_leq,
    derived_tables,
    gram_positive_definite,
    scalar_covers,
    shortlex_tables,
)

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
            assert bruhat_leq(g, x, y) == (x in below)
        assert np.flatnonzero(g.bruhat_leq(np.arange(g.size), y)).tolist() == sorted(below)


@pytest.mark.parametrize("name", ["H3", "B4", "F4"])
def test_bruhat_walk_matches_the_scalar_oracle_on_all_pairs(groups, name):
    g = groups(name)
    ids = np.arange(g.size)
    got = g.bruhat_leq(ids[:, None], ids)
    assert got.shape == (g.size, g.size)
    for x in range(g.size):
        assert got[x].tolist() == [bruhat_leq(g, x, y) for y in range(g.size)], x


def test_bruhat_basics(groups):
    g = groups("H3")
    for y in range(0, g.size, 7):
        assert bruhat_leq(g, 0, y)
        assert bruhat_leq(g, y, y)
        assert bruhat_leq(g, y, g.w0)


def test_dihedral_bruhat_is_length_order(groups):
    g = groups("I2(5)")
    for x in range(g.size):
        for y in range(g.size):
            expected = x == y or g.lengths[x] < g.lengths[y]
            assert bruhat_leq(g, x, y) == expected


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


@pytest.mark.parametrize(
    "name",
    ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "D4", "F4", "H3", "H4"]
    + [f"I2({m})" for m in range(2, 13)],
)
def test_tables_and_covers_match_the_scalar_oracles(name):
    """The numpy relabel, derivation and deletion-set covers give what the
    element-at-a-time loops and the scalar Bruhat walk give, and each array
    equals its list."""
    g = group_from_name(name)
    matrix, n = g.matrix, g.rank
    lengths, rmult, parent, lastgen = shortlex_tables(
        _coset_table(matrix, 8 * group_order(matrix) + 64), n)
    lmult, inv, rmask, lmask = derived_tables(n, lengths, rmult, parent, lastgen)
    expected = dict(lengths=lengths, rmult=rmult, parent=parent, lastgen=lastgen,
                    lmult=lmult, inv=inv, lmask=lmask, rmask=rmask)
    for field, array in g.arrays._asdict().items():
        assert array.dtype == np.int64, field
        assert getattr(g, field) == expected[field], field
        assert array.tolist() == expected[field], field
    assert g.w0 == lengths.index(max(lengths))
    for y, covers in enumerate(scalar_covers(g)):
        assert g.covers(y).tolist() == covers, y


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
    assert m.to_text() == "3\n5 2\n3\n"
    g = build_group(m, "custom")
    assert g.size == 120


@pytest.mark.parametrize("name", ["A1", "I2(7)", "B4", "D5", "H4"])
def test_matrix_to_text_round_trip(name):
    m = preset_matrix(name)[0]
    assert CoxeterMatrix.from_text(m.to_text()) == m


@pytest.mark.parametrize("name, cosets", [("A1", [2]), ("H3", [20, 12]),
                                          ("H4", [600, 720, 120])])
def test_build_leaves_out_the_space_of_largest_index(monkeypatch, name, cosets):
    """From rank 2 on, the build enumerates the cosets of every W_{S-s}
    but the one of largest index: 1,440 on H4, not 2,640."""
    sizes = []

    def counted(matrix, limit, subgroup=()):
        table = _coset_table(matrix, limit, subgroup)
        sizes.append(len(table[0]))
        return table

    monkeypatch.setattr(coxeter, "_coset_table", counted)
    assert build_group(preset_matrix(name)[0]).size == group_order(preset_matrix(name)[0])
    assert sizes == cosets


def test_infinite_type_rejected():
    with pytest.raises(InfiniteTypeError):
        build_group(CoxeterMatrix.from_upper_labels(3, [3, 3, 3]))  # affine A2
    with pytest.raises(InfiniteTypeError):
        build_group(CoxeterMatrix.chain(3, [4, 4]))  # affine C2
    with pytest.raises(InfiniteTypeError):
        build_group(CoxeterMatrix.chain(3, [5, 5]))  # hyperbolic


def test_group_size_cap(monkeypatch):
    monkeypatch.setattr(coxeter, "MAX_SIZE", 10)
    with pytest.raises(GroupTooLargeError):
        build_group(preset_matrix("B3")[0])


def test_unknown_preset():
    with pytest.raises(ValueError):
        preset_matrix("E8")


# sha256 of the tables below, each as JSON in this order, from the build
# through the exact root system that preceded the coset enumeration
TABLE_FIELDS = (
    "lengths", "rmult", "parent", "lastgen", "inv", "lmult", "lmask", "rmask", "w0",
    "num_pos_roots",
)
TABLE_DIGESTS = {
    "A1": "7457e669f104f8d5f690f25cca2de610d453f36b2bfa73817ec55460e7d84c3e",
    "A2": "a662f8f65296307522ee447366166c7d5b87441d33a71c512fc52cc953cfda21",
    "A3": "050090a79071bb0ad3a2447068f4e3e08fa9750dc906adbbe7c7b3f8ac876f73",
    "A4": "6adbf9ec24ddeed8657be1f8b394437164cd1362dfd6c635f1b579abd41c7305",
    "A5": "e0bdee6e985291f85db398c588420c69f6ebe0c4cc3e8e1c87a3c56acee9f19d",
    "A6": "adf02d73dd4f44e1c1632d79d0d2445f8e1fdd6adbf47a87ec77e44cffbc3884",
    "B2": "dfc841711a8bfc5ef8141282f2188613b07a26bfd9cd3844fc784198a14bace5",
    "B3": "d0e6f1c8f1578f448a4f6123072475e7d73a5397132a2994df782daedb2926ef",
    "B4": "5e939f4d8e7118a46c183153f893e08591546859878a073e3c6d8f4903ea29fd",
    "B5": "9f5101e83880197feb806bbe283ade711ee78415a1747555cdd508242ea74bf9",
    "B6": "bff30d678f65b957372ba6dc9dbd4610a867bc323e4667fff45b0eb8e2e3edd5",
    "D4": "33d192de045478b0975fe3972e0459196a98312b43883b4eb2faed28be0e024c",
    "D5": "cbbe66f3fd00e5857c9978222c1f2f57a6bfba9a2289d418550e8a879161bdd8",
    "D6": "ea7c4eab3691c8d4513d17d09c559778646993768b9ce74eb1a1025edad70d6c",
    "F4": "29c15f20a088945083e2ab233564f374289625e569428e9391b3c9a6f555e328",
    "H3": "a5e61798df110d49bd9106a5ae156d29c7695ad1b139e8303bfe7d14e74f64ba",
    "H4": "1aa3083e66d2606c447257dd04e7dba0f9a21ab40fc4b462cd12ce403d0c61a3",
    "I2(2)": "7a145f45450108b89a7577c148c6088a43f21a7962e1ccefaca8d30234857fba",
    "I2(3)": "a662f8f65296307522ee447366166c7d5b87441d33a71c512fc52cc953cfda21",
    "I2(4)": "dfc841711a8bfc5ef8141282f2188613b07a26bfd9cd3844fc784198a14bace5",
    "I2(5)": "ff1764b196ae69cc0f816489e9fd2f11c2ef1338db6a7be8bb89aca1ec6c5d3e",
    "I2(6)": "c632afedbabff541ceafa4498816479d8b461c0151098886f961357b7dbf7d33",
    "I2(7)": "f2f6a5258f3f75ea4875cc0f3cb33dc429b5d1326dde3025c5ec62213db36b7c",
    "I2(8)": "e4f12e7c6852ec6d8968c54515f1b28f2ae46a04cfa7d155a9a3ac2920848f0d",
    "I2(9)": "712550984ea233eef49715597cdad0db3ac961ed13d2a55b48ed02d95e478c8f",
    "I2(10)": "8458779844d3dd64df1176f4c2d98b61fc087f0bb9c5ff9da826da12969dacb8",
    "I2(11)": "947cf5b8e0c42c3ad14424dd27daa67c0d2690d82235684bf14bce1655cf4e53",
    "I2(12)": "3a69e317fed6d4b24838995b7826788fde3b61ac870521e4fb42f42ebff43905",
    "I2(13)": "9d55c064ffe95ce558468251ba5c6506e060e82133323941ef147d62976a558f",
    "I2(14)": "56066173d6bb3bff58115df7c85521ea8edd890de841cb92159160db0628d1c7",
    "I2(15)": "a19cafb28ff1348cc5bf9e63fcf3b0c0a06ab49d68a4757bfa9efe461888f543",
    "I2(16)": "d92e3c8995912bf1bd9ee3de5f94db59b95b1b11d3d8b61f7701a9522bcfc3e2",
    "I2(17)": "d74662b533711f3b7f39bccb8ecb8c9cd002a9e4be6dd8a0c198a55b1b263dea",
    "I2(18)": "ba15b01d3b7c55d6e8af9eb66a324d67a7b3d29603620eac6eaa8d0f9c7b79ce",
    "I2(19)": "2a38cd1d13290088ad33ba4a3e0ff2fa68e93c76c5043fe20f6e48cb1175e892",
    "I2(20)": "e6484a57b7d6440172b3125307a0d62bf569c3d2ed5e4c4d6623412fb44135ee",
    "I2(21)": "707a8dff2076c26c40dbfd662c799455cfbe00274626d06c509911f69e3a4330",
    "I2(22)": "d8a2086a3f012ac2c52db5688458e0707ee6a9a5363363dee0dcf17ece847039",
    "I2(23)": "9d0109ae30fe32a063403a7cfb0ecc29ab178ada6d58c8d1841bedb192ba3578",
    "I2(24)": "26636a2f6534827413d363f6b19604f8976d4c930ca8248b2e5eb438ec80520c",
    "I2(25)": "17aac2c146646c3ae1bff2dc50d586202aa65a81aa3cc61e1af376e9a725eb05",
    "I2(26)": "c83b1f45597fbd08b7c5c37ca4ccca5900f414ce670ae994a61bccf413b3cd44",
    "I2(27)": "b7f4f8728dd90cb2c1be0547de92c7f3418e874c2f8acc6b345c1e37f46ab466",
    "I2(28)": "14fda7bca6a533d47de5910bc63d957b1836df49a8c231b1da608c4f10c4167b",
    "I2(29)": "d1d2738b2e48249795cd7c529af0cdfb015e01aa021672adf566729eb1cba2db",
    "I2(30)": "8bd13f1f7b442465d91f70e62c6879d4e35239c8e6edc4d0933f19f3722bb593",
    "E6": "7773f37e8984a899762f9a2a0c61ec536673f8d61e021c2006fd8e123e238b8e",
}


def table_digest(g):
    h = hashlib.sha256()
    for name in TABLE_FIELDS:
        h.update(json.dumps(getattr(g, name)).encode())
    return h.hexdigest()


def simply_laced(rank, bonds):
    m = [[1 if i == j else 2 for j in range(rank)] for i in range(rank)]
    for i, j in bonds:
        m[i][j] = m[j][i] = 3
    return CoxeterMatrix(m)


def e_matrix(rank):
    """E6, E7 or E8: the chain 0-2-3-...-(rank-1), with 1 joined to 3."""
    return simply_laced(rank, [(0, 2), (1, 3)] + [(i, i + 1) for i in range(2, rank - 1)])


def oracle_tables(matrix):
    """The eight tables of ``GroupTable.arrays`` from one HLT run over the
    trivial subgroup, relabelled and derived one element at a time."""
    n = matrix.rank
    lengths, rmult, parent, lastgen = shortlex_tables(
        _coset_table(matrix, 8 * group_order(matrix) + 64), n)
    lmult, inv, rmask, lmask = derived_tables(n, lengths, rmult, parent, lastgen)
    return dict(lengths=lengths, rmult=rmult, parent=parent, lastgen=lastgen,
                lmult=lmult, inv=inv, lmask=lmask, rmask=rmask)


@pytest.mark.parametrize(
    "matrix",
    # the presets test_tables_and_covers_match_the_scalar_oracles leaves out
    [preset_matrix(name)[0] for name in ["A6", "B5", "B6", "D5", "D6"]]
    + [preset_matrix(f"I2({m})")[0] for m in range(13, 31)]
    + [CoxeterMatrix.from_text(text) for text in ["1", "2\n2", "4\n3 2 2\n2 2\n5",
                                                  "4\n5 2 2\n3 2\n2"]]
    + [e_matrix(6)],
    ids=["A6", "B5", "B6", "D5", "D6"] + [f"I2({m})" for m in range(13, 31)]
    + ["rank-1", "A1xA1", "A2xI2(5)", "H3xA1", "E6"],
)
def test_parabolic_build_matches_the_trivial_subgroup_oracle(matrix):
    """Enumerating through the maximal parabolic cosets gives the tables
    that one HLT run over the trivial subgroup gives, reducible groups
    included, where some W_{S-s} holds whole components."""
    g = build_group(matrix)
    expected = oracle_tables(matrix)
    for field, array in g.arrays._asdict().items():
        assert array.dtype == np.int64, field
        assert array.tolist() == expected[field], field
    assert g.w0 == expected["lengths"].index(max(expected["lengths"]))


@pytest.mark.parametrize("space, gen, coset", [(0, 0, 0), (2, 1, 6)])
def test_a_wrong_coset_table_is_refused(monkeypatch, space, gen, coset):
    """One wrong entry in one of H3's coset tables, at a move x s with
    l(x s) > l(x), which the search reads, ends the build in
    AssertionError rather than in a search that grows without end."""
    def wrong(matrix, limit, subgroup=()):
        table = _coset_table(matrix, limit, subgroup)
        if len(subgroup) == matrix.rank - 1 and space not in subgroup:
            table[gen][coset] = (table[gen][coset] + 1) % len(table[gen])
        return table

    monkeypatch.setattr(coxeter, "_coset_table", wrong)
    with pytest.raises(AssertionError):
        build_group(preset_matrix("H3")[0])


@pytest.mark.parametrize("name", sorted(set(TABLE_DIGESTS) - {"E6"}))
def test_tables_match_pinned_digest(name):
    assert table_digest(group_from_name(name)) == TABLE_DIGESTS[name]


def test_e6_tables_match_pinned_digest():
    g = build_group(e_matrix(6), "E6")
    assert g.size == 51840
    assert table_digest(g) == TABLE_DIGESTS["E6"]


def assert_presentation(matrix, g):
    """(s t) has order exactly m(s, t) in rmult; with involutive columns,
    these are the Coxeter relations."""
    for s, t in itertools.combinations(range(matrix.rank), 2):
        x, k = 0, 0
        while True:
            x = g.rmult[g.rmult[x][s]][t]
            k += 1
            if x == 0:
                break
        assert k == matrix.entries[s][t], (matrix, s, t)


def check_against_gram(matrix):
    """group_order agrees with the float Gram oracle, and a finite group of
    order <= 20000 builds to that size with the Coxeter relations."""
    try:
        order = group_order(matrix)
    except InfiniteTypeError:
        order = None
    assert (order is not None) == gram_positive_definite(matrix), matrix
    if order is not None and order <= 20000:
        g = build_group(matrix)
        assert g.size == order
        assert_presentation(matrix, g)
    return order


def test_classifier_exhaustive_rank_4_labels_2_to_6():
    finite = 0
    for rank in range(1, 5):
        pairs = rank * (rank - 1) // 2
        for labels in itertools.product(range(2, 7), repeat=pairs):
            finite += check_against_gram(CoxeterMatrix.from_upper_labels(rank, labels)) is not None
    assert finite > 0


@pytest.mark.parametrize("rank", [5, 6, 7, 8])
def test_classifier_sampled_ranks_5_to_8(rank):
    """Each matrix has 1 to rank bonds, labelled from 3..6 at random
    places, so that finite and infinite cases both come up often."""
    rng = random.Random(rank)
    pairs = list(itertools.combinations(range(rank), 2))
    found = {True: 0, False: 0}
    for _ in range(150):
        m = [[1 if i == j else 2 for j in range(rank)] for i in range(rank)]
        for i, j in rng.sample(pairs, rng.randint(1, rank)):
            m[i][j] = m[j][i] = rng.randint(3, 6)
        found[check_against_gram(CoxeterMatrix(m)) is not None] += 1
    assert found[True] > 20 and found[False] > 20, found


@pytest.mark.parametrize("rank", [7, 8])
def test_e7_e8_refused_at_once(rank):
    start = time.perf_counter()
    with pytest.raises(GroupTooLargeError):
        build_group(e_matrix(rank))
    assert time.perf_counter() - start < 1.0
    assert group_order(e_matrix(rank)) == {7: 2903040, 8: 696729600}[rank]


@pytest.mark.parametrize(
    "matrix",
    [
        simply_laced(5, [(0, 1), (0, 2), (0, 3), (0, 4)]),  # affine D4
        simply_laced(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)]),  # affine E6
        CoxeterMatrix.chain(5, [3, 3, 4, 3]),  # affine F4
        CoxeterMatrix.chain(4, [3, 5, 3]),
        simply_laced(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
        simply_laced(6, [(0, 1), (1, 2), (2, 3), (1, 4), (2, 5)]),  # two branch points
        CoxeterMatrix.chain(4, [4, 3, 4]),
        CoxeterMatrix.chain(5, [5, 3, 3, 3]),
    ],
    ids=["affine-D4", "affine-E6", "affine-F4", "3-5-3", "4-cycle", "two-branches",
         "4-3-4", "5-3-3-3"],
)
def test_more_infinite_types_rejected(matrix):
    assert not gram_positive_definite(matrix)
    with pytest.raises(InfiniteTypeError):
        build_group(matrix)


def test_coset_enumeration_stops_at_its_limit():
    with pytest.raises(RuntimeError):
        _coset_table(preset_matrix("H3")[0], 100)
    # W_{S-s} for the last s of H4 is H3, of index 120
    h4 = preset_matrix("H4")[0]
    with pytest.raises(RuntimeError):
        _coset_table(h4, 100, [0, 1, 2])
    assert len(_coset_table(h4, 200, [0, 1, 2])[0]) == 120
