"""The exact arithmetic in Z[2cos(pi/N)] behind the Gram oracle of
``tests/oracles.py``: minimal polynomials and Gram determinants."""

import math

import numpy as np
import pytest

from klbasis.coxeter import CoxeterMatrix, preset_matrix

from oracles import cos_minimal_poly, gram_determinant, gram_positive_definite


def test_minimal_polys():
    assert cos_minimal_poly(3) == (-1, 1)       # 2cos(pi/3) = 1
    assert cos_minimal_poly(4) == (-2, 0, 1)    # sqrt 2
    assert cos_minimal_poly(5) == (-1, -1, 1)   # golden ratio
    assert cos_minimal_poly(6) == (-3, 0, 1)    # sqrt 3
    assert len(cos_minimal_poly(15)) - 1 == 4
    assert len(cos_minimal_poly(30)) - 1 == 8


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6, 7, 12, 15, 30])
def test_theta_satisfies_minpoly_numerically(N):
    poly = cos_minimal_poly(N)
    theta = 2 * math.cos(math.pi / N)
    assert abs(sum(c * theta**i for i, c in enumerate(poly))) < 1e-9


@pytest.mark.parametrize("name", ["A1", "A4", "B3", "D5", "F4", "H3", "H4", "I2(7)", "I2(30)"])
def test_gram_determinant_matches_float(name):
    matrix = preset_matrix(name)[0]
    big, coeffs = gram_determinant(matrix)
    theta = 2 * math.cos(math.pi / big)
    exact = sum(c * theta**i for i, c in enumerate(coeffs))
    twice_gram = -2 * np.cos(np.pi / np.array(matrix.entries, dtype=float))
    assert exact > 0
    assert abs(exact - np.linalg.det(twice_gram)) < 1e-9


def test_gram_determinant_of_cartan_types():
    """Twice the Gram matrix of a simply laced or B type is its Cartan
    matrix: determinant n + 1 for A_n, 2 for B_n, 4 for D_n, 1 for F4."""
    for name, det in [("A1", 2), ("A5", 6), ("B4", 2), ("D6", 4), ("F4", 1)]:
        coeffs = gram_determinant(preset_matrix(name)[0])[1]
        assert coeffs[0] == det and not any(coeffs[1:]), name


@pytest.mark.parametrize(
    "matrix",
    [
        CoxeterMatrix([[1, 3, 3], [3, 1, 3], [3, 3, 1]]),  # affine A2
        CoxeterMatrix.chain(3, [4, 4]),  # affine B2
        CoxeterMatrix.chain(3, [6, 3]),  # affine G2
        CoxeterMatrix.chain(5, [3, 3, 4, 3]),  # affine F4
    ],
    ids=["affine-A2", "affine-B2", "affine-G2", "affine-F4"],
)
def test_affine_gram_determinant_is_exactly_zero(matrix):
    assert not any(gram_determinant(matrix)[1])
    assert not gram_positive_definite(matrix)
