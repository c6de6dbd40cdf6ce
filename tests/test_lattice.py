"""The order of a vector modulo an integer lattice and the functional that
separates it, checked by definition, and the scalar witness built from the
order."""

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

import cohnibn.rewriting
from cohnibn import (
    InternalInvariantViolation,
    LengthMismatchError,
    ReductionTrace,
    SearchBounds,
    construct_scalar_witness,
    graph_from,
    incidence,
    monoid_presentation,
    rose_two,
    separating_functional,
    torsion_order,
)
from cohnibn.lattice import echelon_basis
from conftest import LONG_WITNESS_ROWS, graph_from_rows, make_random_graph
from test_certificates import reference_weights


def _relation_rows(matrix):
    """Rows e_v - A_v for the regular vertices, as Python ints."""
    rows = []
    for i in range(matrix.num_regular):
        row = [-int(a) for a in matrix.entries[i]]
        row[i] += 1
        rows.append(row)
    return rows


def _combine(coefficients, rows, width):
    out = [0] * width
    for c, row in zip(coefficients, rows):
        out = [a + c * b for a, b in zip(out, row)]
    return out


def _solve_left(matrix, y):
    """z with z . matrix == y over Q by Gauss-Jordan, or None if singular."""
    n = len(matrix)
    work = [
        [Fraction(matrix[j][i]) for j in range(n)] + [Fraction(y[i])]
        for i in range(n)
    ]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col]), None)
        if pivot is None:
            return None
        work[col], work[pivot] = work[pivot], work[col]
        lead = work[col][col]
        work[col] = [a / lead for a in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                f = work[r][col]
                work[r] = [a - f * b for a, b in zip(work[r], work[col])]
    return [work[i][n] for i in range(n)]


def test_torsion_order_small_cases():
    # Z / 3Z: the order of 1 is 3, with 3 = 1 * 3.
    assert torsion_order([[3]], [1]) == (3, (1,), ())
    # Rose with two loops: e_v - 2 e_v = -1, so [1] = 0 and k = 1.
    assert torsion_order([[-1]], [1]) == (1, (-1,), ())
    # Outside the rational span: no multiple lies in the lattice.
    assert torsion_order([[1, -1]], [1, 1]) is None
    assert torsion_order([], [1]) is None
    # y = 0 has order 1 with the zero relation.
    assert torsion_order([[2, 4]], [0, 0]) == (1, (0,), ())


def test_torsion_order_kernel_is_a_basis_of_the_row_relations():
    rng = random.Random(31)
    deficient = 0
    for _ in range(400):
        width = rng.randint(1, 5)
        rows = [[rng.randint(-3, 3) for _ in range(width)]
                for _ in range(rng.randint(0, 6))]
        # Half the time the last row is an integer combination c of the
        # others, so the rank falls short of the row count.  The relation
        # (c, -1) is then in the integer kernel, so it must be an integer
        # combination of the kernel basis, not only a rational one.
        relation = None
        if len(rows) > 1 and rng.random() < 0.5:
            c = [rng.randint(-2, 2) for _ in rows[:-1]]
            rows[-1] = _combine(c, rows[:-1], width)
            relation = [*c, -1]
        y = _combine([rng.randint(-3, 3) for _ in rows], rows, width)
        k, lam, kernel = torsion_order(rows, y)
        assert k == 1 and _combine(lam, rows, width) == y
        assert len(kernel) == len(rows) - len(echelon_basis(rows)), rows
        for mu in kernel:
            assert len(mu) == len(rows) and any(mu)
            assert _combine(mu, rows, width) == [0] * width
        if relation is not None:
            rest = relation
            for col, vec in echelon_basis(kernel):
                q, r = divmod(rest[col], vec[col])
                assert r == 0, (rows, kernel)
                rest = [a - q * b for a, b in zip(rest, vec)]
            assert not any(rest)
        deficient += bool(kernel)
    assert deficient >= 100
    # G's rows have rank 8 of 9, and their one relation is kappa.
    rs = monoid_presentation(incidence(graph_from_rows(LONG_WITNESS_ROWS)))
    kappa = (-931, 1309, -227, 376, 227, 698, -1387, -228, -488)
    _, _, kernel = torsion_order(rs.relation_rows(), (1,) * rs.num_generators)
    assert kernel in ((kappa,), (tuple(-a for a in kappa),))


def test_echelon_basis_is_an_echelon_z_basis():
    rows = [[4, 6, 2], [6, 9, 3], [2, 0, 8], [0, 3, 1]]
    basis = echelon_basis(rows)
    pivots = [col for col, _ in basis]
    assert pivots == sorted(set(pivots))
    for j, (col, vec) in enumerate(basis):
        assert vec[col] != 0
        assert all(a == 0 for a in vec[:col])
        assert all(vec[p] == 0 for p in pivots[:j])
    # Every basis vector is an integer combination of the rows: the echelon
    # of [rows | I] has basis as its row part, and its identity part
    # recombines the rows into each of its vectors.
    augmented = echelon_basis(
        [[*row, *(int(i == j) for j in range(4))] for i, row in enumerate(rows)]
    )
    assert [(col, vec[:3]) for col, vec in augmented if col < 3] == basis
    for _, vec in augmented:
        assert _combine(vec[3:], rows, 3) == vec[:3]
    # Every input row is an integer combination of the basis.
    for row in rows:
        rest = list(row)
        for col, vec in basis:
            q, r = divmod(rest[col], vec[col])
            assert r == 0
            rest = [a - q * b for a, b in zip(rest, vec)]
        assert not any(rest)


def test_torsion_order_matches_definition_on_random_graphs():
    rng = random.Random(11)
    torsion = 0
    for _ in range(300):
        matrix = incidence(make_random_graph(rng))
        rows = _relation_rows(matrix)
        rho = [1] * matrix.size
        result = torsion_order(rows, rho)
        has_certificate = reference_weights(matrix) is not None
        assert (result is None) == has_certificate
        if result is None:
            continue
        torsion += 1
        k, lam, _ = result
        assert k >= 1 and len(lam) == len(rows)
        assert _combine(lam, rows, matrix.size) == [k * a for a in rho]
    assert torsion >= 20


def test_torsion_order_is_minimal_against_an_inverse():
    # Sink-free graphs with I - A nonsingular: lam is forced to be
    # k * rho (I - A)^-1, so the least k is the lcm of its denominators.
    rng = random.Random(5)
    checked = 0
    orders = set()
    while checked < 60:
        n = rng.randint(1, 5)
        a = [[rng.choice((0, 0, 1, 1, 2)) for _ in range(n)] for _ in range(n)]
        for row in a:
            if not any(row):
                row[rng.randrange(n)] = 1
        relation = [[int(i == j) - a[i][j] for j in range(n)] for i in range(n)]
        z = _solve_left(relation, [1] * n)
        if z is None:
            continue
        expected = lcm(*(c.denominator for c in z))
        k, lam, _ = torsion_order(relation, [1] * n)
        assert k == expected, (a, z)
        assert list(lam) == [int(c * k) for c in z]
        orders.add(k)
        checked += 1
    assert len(orders) >= 5


def _dot(w, v):
    return sum(a * b for a, b in zip(w, v))


def test_separating_functional_small_cases():
    # Outside the rational span: an exact functional, modulus 0.
    assert separating_functional([[1, -1]], [1, 1]) == ((1, 1), 0)
    assert separating_functional([], [0, 2]) == ((0, 1), 0)
    # Z / 3Z: 1 is not a multiple of 3, and w = 1 tells them apart mod 3.
    assert separating_functional([[3]], [1]) == ((1,), 3)
    # In the lattice, including y = 0 and the empty lattice's zero.
    assert separating_functional([[3]], [6]) is None
    assert separating_functional([[2, 4], [0, 3]], [2, 7]) is None
    assert separating_functional([], [0, 0]) is None


def test_separating_functional_matches_definition_on_random_rows():
    rng = random.Random(23)
    kinds = {"member": 0, "exact": 0, "modular": 0}
    for _ in range(600):
        width = rng.randint(1, 5)
        rows = [
            [rng.randint(-4, 4) for _ in range(width)]
            for _ in range(rng.randint(0, 5))
        ]
        # Half the targets are rational combinations of the rows, so that
        # the torsion case comes up often.
        if rows and rng.random() < 0.5:
            coefficients = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in rows]
            y = [sum(c * row[i] for c, row in zip(coefficients, rows)) for i in range(width)]
            y = [int(a * lcm(*(a.denominator for a in y))) for a in y]
        else:
            y = [rng.randint(-5, 5) for _ in range(width)]
        order = torsion_order(rows, y)
        found = separating_functional(rows, y)
        assert (found is None) == (order is not None and order[0] == 1), (rows, y)
        if found is None:
            kinds["member"] += 1
            continue
        w, d = found
        assert len(w) == width and d >= 0
        for row in rows:
            assert _dot(w, row) % d == 0 if d else _dot(w, row) == 0
        assert _dot(w, y) % d != 0 if d else _dot(w, y) != 0
        # Modulus 0 exactly when no multiple of y is in the lattice.
        assert (d == 0) == (order is None)
        kinds["exact" if d == 0 else "modular"] += 1
    assert min(kinds.values()) >= 50, kinds


@st.composite
def leavitt_graphs(draw):
    """Random graphs with 1-4 vertices, at least one of them regular."""
    n = draw(st.integers(1, 4))
    vertices = [f"v{i}" for i in range(n)]
    edges = []
    for i in range(draw(st.integers(1, n))):
        counts = [draw(st.integers(0, 2)) for _ in range(n)]
        if not any(counts):
            counts[draw(st.integers(0, n - 1))] = 1
        for j, count in enumerate(counts):
            edges += [(f"e{i}_{j}_{c}", vertices[i], vertices[j]) for c in range(count)]
    return graph_from(vertices, edges)


@given(leavitt_graphs())
@settings(max_examples=80, deadline=None)
def test_certificate_or_replayable_torsion_witness(graph):
    matrix = incidence(graph)
    rs = monoid_presentation(matrix)
    n = matrix.size
    torsion = torsion_order(_relation_rows(matrix), [1] * n)
    # Exactly one of the two kinds of evidence exists.
    assert (torsion is None) == (reference_weights(matrix) is not None)
    if torsion is None:
        return
    k, lam, _ = torsion
    generous = SearchBounds(max_total_coefficient=10**9, max_depth=10**6)
    built = construct_scalar_witness(rs, k, lam, bounds=generous)
    w = built.witness
    assert w is not None and built.needs == ()
    assert w.m_prime - w.m == k
    assert w.trace_a.start == (w.m,) * n
    assert w.trace_b.start == (w.m_prime,) * n
    assert w.trace_a.replay(rs) == w.descendant == w.trace_b.replay(rs)


def test_construction_reports_each_broken_bound():
    rs = monoid_presentation(incidence(rose_two()))
    k, lam, _ = torsion_order([[-1]], [1])
    ok = construct_scalar_witness(rs, k, lam)
    assert (ok.witness.m, ok.witness.m_prime) == (1, 2)
    assert ok.witness.trace_a.steps == ((0, (2,)),)
    assert ok.witness.trace_b.steps == ()

    tight = construct_scalar_witness(
        rs, k, lam, bounds=SearchBounds(max_total_coefficient=1)
    )
    assert tight.witness is None
    assert tight.needs == (("max_total_coefficient", 2),)
    with pytest.raises(LengthMismatchError):
        construct_scalar_witness(rs, k, (-1, 0))

    # u loops and feeds w; w feeds u three times and loops: 3 rho is
    # -3 r_u - r_w, so c*rho takes four firings.
    g = graph_from(
        ["u", "w"],
        [("a", "u", "u"), ("b", "u", "w"), ("c", "w", "u"), ("d", "w", "u"),
         ("e", "w", "u"), ("f", "w", "w")],
    )
    rs = monoid_presentation(incidence(g))
    assert torsion_order(_relation_rows(incidence(g)), [1, 1]) == (3, (-3, -1), ())
    deep = construct_scalar_witness(rs, 3, (-3, -1), bounds=SearchBounds(max_depth=3))
    assert deep.witness is None and deep.needs == (("max_depth", 4),)
    both = construct_scalar_witness(
        rs, 3, (-3, -1), bounds=SearchBounds(max_total_coefficient=7, max_depth=3)
    )
    assert both.needs == (("max_total_coefficient", 8), ("max_depth", 4))
    w = construct_scalar_witness(rs, 3, (-3, -1)).witness
    assert (w.m, w.m_prime, w.descendant) == (1, 4, (4, 4))


def test_construction_checks_its_bounds_before_firing(monkeypatch):
    # The peak and the depth follow from the relation, so a witness that
    # breaks either is never fired: here firing it would take millions of
    # steps.
    def no_firing(*args, **kwargs):
        raise AssertionError("the construction fired past a broken bound")

    monkeypatch.setattr(cohnibn.rewriting, "fire_greedily", no_firing)
    rs = monoid_presentation(incidence(graph_from_rows(LONG_WITNESS_ROWS)))
    rows = rs.relation_rows()
    assert len(echelon_basis(rows)) < rs.num_rules
    k, lam, _ = torsion_order(rows, (1,) * rs.num_generators)
    assert k == 1
    built = construct_scalar_witness(rs, k, lam)
    assert built.witness is None
    assert built.needs == (("max_total_coefficient", 24672196), ("max_depth", 4867271))


def test_construction_checks_the_fired_end_against_its_total(monkeypatch):
    real = cohnibn.rewriting.fire_greedily

    def one_more_unit(start, counts, rs):
        trace = real(start, counts, rs)
        end = (trace.end[0] + 1,) + trace.end[1:]
        return ReductionTrace(trace.start, trace.steps + ((0, end),))

    monkeypatch.setattr(cohnibn.rewriting, "fire_greedily", one_more_unit)
    rs = monoid_presentation(incidence(rose_two()))
    k, lam, _ = torsion_order([[-1]], [1])
    with pytest.raises(InternalInvariantViolation):
        construct_scalar_witness(rs, k, lam)
