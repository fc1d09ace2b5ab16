import random

import pytest

from formstrength.domains import GF, QQ
from formstrength.linalg import (
    gram_diagonal,
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
            assert mat_mul(m, inv, dom) == [[dom.one if i == j else dom.zero for j in range(n)] for i in range(n)]


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


def _symmetric_cases(rng, dom):
    """Random symmetric matrices G, G with its diagonal set to 0 (only the
    x_i -> x_i + x_j step can start those), and the singular M^t G M with
    the first row of M zero."""
    for _ in range(15):
        n = rng.randint(1, 5)
        raw = _random_matrix(rng, n, n, dom)
        gram = [[dom.add(raw[i][j], raw[j][i]) for j in range(n)] for i in range(n)]
        yield gram
        yield [[dom.zero if i == j else gram[i][j] for j in range(n)] for i in range(n)]
        m = _random_matrix(rng, n, n, dom)
        m[0] = [dom.zero] * n
        yield mat_mul(mat_mul(transpose(m), gram, dom), m, dom)


def test_gram_diagonal_transform():
    """With the identity appended, gram_diagonal leaves T^t in the appended
    columns: T is invertible, T^t G T is diagonal, and its nonzero diagonal
    entries are the returned entries, as many as the rank of G."""
    rng = random.Random(57)
    for dom in (QQ, GF(7)):
        for gram in _symmetric_cases(rng, dom):
            n = len(gram)
            a = [list(row) + [dom.one if i == j else dom.zero for j in range(n)] for i, row in enumerate(gram)]
            entries = gram_diagonal(a, dom.characteristic)
            tail = [row[n:] for row in a]
            t = transpose(tail)
            assert mat_rank(t, dom) == n
            check = mat_mul(mat_mul(tail, gram, dom), t, dom)
            assert all(not check[i][j] for i in range(n) for j in range(n) if i != j)
            assert sorted(check[i][i] for i in range(n) if check[i][i]) == sorted(entries)
            assert len(entries) == mat_rank(gram, dom)
