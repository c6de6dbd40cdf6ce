"""Weight systems, exact solving, verification, and the rank argument."""

import random
from fractions import Fraction

import pytest

from cohnibn import (
    WeightCertificate,
    classify,
    cohn_companion,
    f_line_graph,
    f_rose_two,
    gamma,
    graph_from,
    incidence,
    parse_weights,
    relative_companion,
    rose_two,
    serialize_weights,
    solve_exact,
    validate,
    verify_certificate,
)
from cohnibn.errors import LengthMismatchError
from conftest import companion_rank_check, make_random_graph

F = Fraction


def reference_weights(rs):
    """Reference solve of the weight system by Fraction elimination.

    Row 0 asks the weights to sum to 1 and row 1 + i asks (A_i - e_i) . w
    = 0 for the i-th regular vertex.  Forward elimination pivots on the
    leftmost nonzero column and topmost row; free variables are set to
    zero.  Returns the weights, or None when the system is inconsistent.
    """
    n = rs.num_generators
    rows = [[F(1)] * n + [F(1)]]
    for i, add in enumerate(rs.rule_add):
        row = [F(int(a)) for a in add] + [F(0)]
        row[i] -= 1
        rows.append(row)
    pivots = []
    for col in range(n):
        top = len(pivots)
        found = next((r for r in range(top, len(rows)) if rows[r][col]), None)
        if found is None:
            continue
        rows[top], rows[found] = rows[found], rows[top]
        for r in range(top + 1, len(rows)):
            ratio = rows[r][col] / rows[top][col]
            if ratio:
                rows[r] = [a - ratio * b for a, b in zip(rows[r], rows[top])]
        pivots.append((top, col))
    if any(row[n] for row in rows[len(pivots):]):
        return None
    weights = [F(0)] * n
    for r, c in reversed(pivots):
        acc = rows[r][n] - sum(rows[r][k] * weights[k] for k in range(c + 1, n))
        weights[c] = acc / rows[r][c]
    return tuple(weights)


def _solved_weights(rs):
    cert = solve_exact(rs)
    return None if cert is None else cert.weights


def test_solve_exact_matches_the_reference_elimination():
    rng = random.Random(53)
    graphs = [
        validate(graph_from(["a", "b", "c"])),
        validate(graph_from(["v"])),
        validate(graph_from(["v"], [("e", "v", "v")])),
    ]
    graphs += [make_random_graph(rng) for _ in range(200)]
    solved = 0
    for g in graphs:
        regular = classify(g).regular
        x = [v for v in regular if rng.random() < 0.5]
        for target in (
            g,
            cohn_companion(g).graph,
            relative_companion(g, x).graph,
        ):
            rs = incidence(target)
            expected = reference_weights(rs)
            assert _solved_weights(rs) == expected, (g, x)
            solved += expected is not None
    assert solved >= 400


def test_solve_exact_companion_rose_two():
    cert = solve_exact(incidence(f_rose_two()))
    assert cert.weights == (F(2), F(-1))
    assert cert.generators == ("v", "v'")


def test_solve_exact_inconsistent_returns_none():
    assert solve_exact(incidence(rose_two())) is None


def test_solve_exact_sets_free_variables_to_zero():
    cert = solve_exact(incidence(f_line_graph()))
    third = F(1, 3)
    assert cert.weights == (third, third, third, F(0), F(0))

    two_sinks = validate(graph_from(["a", "b"]))
    cert2 = solve_exact(incidence(two_sinks))
    assert cert2.weights == (F(1), F(0))


def test_gamma_is_linear_and_checked():
    cert = WeightCertificate(weights=(F(2), F(-1)), generators=("v", "v'"))
    assert gamma(cert, (1, 0)) == 2
    assert gamma(cert, (1, 2)) == 0
    assert gamma(cert, (0, 0)) == 0
    assert gamma(cert, (3, 4)) == gamma(cert, (1, 1)) + gamma(cert, (2, 3))
    with pytest.raises(LengthMismatchError):
        gamma(cert, (1,))


def test_verify_certificate_accepts_true_certificates():
    rs = incidence(f_rose_two())
    cert = solve_exact(rs)
    assert verify_certificate(cert, rs)


def test_verify_certificate_rejects_tampering():
    rs = incidence(f_rose_two())
    good = solve_exact(rs)

    wrong_weight = WeightCertificate(weights=(F(2), F(1)), generators=good.generators)
    assert not verify_certificate(wrong_weight, rs)

    wrong_sum = WeightCertificate(
        weights=(F(4), F(-2)), generators=good.generators
    )
    assert not verify_certificate(wrong_sum, rs)

    wrong_gens = WeightCertificate(weights=good.weights, generators=("a", "b"))
    assert not verify_certificate(wrong_gens, rs)

    # Sums to one but breaks the rule equation: 1 != 2*1 + 2*0.
    right_sum_wrong_rule = WeightCertificate(
        weights=(F(1), F(0)), generators=good.generators
    )
    assert not verify_certificate(right_sum_wrong_rule, rs)


def test_companion_system_solvable_on_random_graphs():
    rng = random.Random(31)
    for _ in range(40):
        g = make_random_graph(rng)
        comp_rs = incidence(cohn_companion(g).graph)
        cert = solve_exact(comp_rs)
        assert cert is not None
        assert verify_certificate(cert, comp_rs)
        assert gamma(cert, (1,) * len(cert.generators)) == 1


def test_edgeless_graph_certificate_and_rank():
    graph = validate(graph_from(["a", "b"]))
    rs = incidence(graph)
    cert = solve_exact(rs)
    assert verify_certificate(cert, rs)
    assert companion_rank_check(graph)


def test_companion_rank_check_on_corpus(corpus):
    for name, graph, _ in corpus:
        assert companion_rank_check(graph), name


def test_companion_rank_check_random():
    rng = random.Random(37)
    for _ in range(40):
        assert companion_rank_check(make_random_graph(rng))


def test_serialize_and_parse_weights_round_trip():
    cert = WeightCertificate(
        weights=(F(2), F(-1), F(5, 3), F(0)),
        generators=("a", "b", "c", "d"),
    )
    strings = serialize_weights(cert)
    assert strings == ("2", "-1", "5/3", "0")
    back = parse_weights(strings, cert.generators)
    assert back == cert


def test_parse_weights_checks_length():
    with pytest.raises(LengthMismatchError):
        parse_weights(("1",), ("a", "b"))


def test_certificate_separates_multiples_of_rho():
    cert = solve_exact(incidence(f_rose_two()))
    rho = (1, 1)
    values = {gamma(cert, tuple(m * c for c in rho)) for m in range(1, 11)}
    assert values == {F(m) for m in range(1, 11)}
