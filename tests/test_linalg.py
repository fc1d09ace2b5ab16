import random

import pytest

from formstrength.domains import GF, QQ
from formstrength.linalg import (
    congruence_diagonalize,
    identity,
    kernel_basis,
    mat_inverse,
    mat_mul,
    mat_rank,
    transpose,
)


def _random_matrix(rng, n, m, dom):
    if dom.characteristic:
        return [[dom.from_int(rng.randrange(dom.characteristic)) for _ in range(m)] for _ in range(n)]
    return [[dom.from_int(rng.randint(-4, 4)) for _ in range(m)] for _ in range(n)]


def test_rank_inverse_roundtrip():
    rng = random.Random(51)
    for dom in (QQ, GF(7)):
        for _ in range(10):
            n = rng.randint(1, 4)
            m = _random_matrix(rng, n, n, dom)
            if mat_rank(m, dom) < n:
                with pytest.raises(ZeroDivisionError):
                    mat_inverse(m, dom)
                continue
            inv = mat_inverse(m, dom)
            assert mat_mul(m, inv, dom) == identity(n, dom)


def test_kernel_vectors_annihilate():
    rng = random.Random(53)
    dom = GF(11)
    for _ in range(10):
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        m = _random_matrix(rng, rows, cols, dom)
        kern = kernel_basis(m, dom)
        assert len(kern) == cols - mat_rank(m, dom)
        for vec in kern:
            image = [
                sum(dom.mul(m[i][j], vec[j]) for j in range(cols)) % 11
                for i in range(rows)
            ]
            assert all(v == 0 for v in image)


def test_congruence_diagonalize():
    rng = random.Random(57)
    for dom in (QQ, GF(7)):
        for _ in range(15):
            n = rng.randint(1, 5)
            raw = _random_matrix(rng, n, n, dom)
            gram = [
                [dom.add(raw[i][j], raw[j][i]) for j in range(n)] for i in range(n)
            ]
            t, diag = congruence_diagonalize(gram, dom)
            assert mat_rank(t, dom) == n
            check = mat_mul(mat_mul(transpose(t), gram, dom), t, dom)
            for i in range(n):
                for j in range(n):
                    expect = diag[i] if i == j else dom.zero
                    assert check[i][j] == expect
