"""Algebra-level IBN/IMN verdicts, their evidence, and the audit."""

import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

import cohnibn.decision
import cohnibn.rewriting
from cohnibn import (
    AlgebraSpec,
    EQUIVALENT,
    IBN_CERTIFIED,
    IBN_REFUTED,
    IBN_UNKNOWN,
    IMN_HOLDS,
    IMN_UNKNOWN,
    InternalInvariantViolation,
    KIND_COHN,
    KIND_LEAVITT,
    KIND_RELATIVE,
    ReductionTrace,
    RewriteSystem,
    ScalarWitness,
    SearchBounds,
    WeightCertificate,
    audit,
    cohn_companion,
    construct_scalar_witness,
    decide_equivalent,
    decide_ibn,
    decide_imn,
    family,
    find_scalar_witness,
    graph_from,
    incidence,
    line_graph,
    monoid_presentation,
    relative_companion,
    resolve_target,
    rose_two,
    scale,
    serialize_weights,
    solve_exact,
    torsion_order,
)
from cohnibn.lattice import echelon_basis
from conftest import make_random_graph


def test_algebra_spec_validation():
    with pytest.raises(ValueError):
        AlgebraSpec(kind="weird", graph=rose_two())
    with pytest.raises(ValueError):
        AlgebraSpec(kind=KIND_COHN, graph=rose_two(), x=("v",))
    spec = AlgebraSpec(kind=KIND_RELATIVE, graph=line_graph(), x=["u"])
    assert spec.x == ("u",)


def test_resolve_target_by_kind():
    g = rose_two()
    assert resolve_target(AlgebraSpec(kind=KIND_LEAVITT, graph=g)) == g
    assert (
        resolve_target(AlgebraSpec(kind=KIND_COHN, graph=g))
        == cohn_companion(g).graph
    )
    fam, x = family(2, 1)
    assert (
        resolve_target(AlgebraSpec(kind=KIND_RELATIVE, graph=fam, x=x))
        == relative_companion(fam, x).graph
    )


def test_cohn_rose_two_is_certified():
    spec = AlgebraSpec(kind=KIND_COHN, graph=rose_two())
    verdict = decide_imn(decide_ibn(spec))
    assert verdict.ibn == IBN_CERTIFIED
    assert verdict.imn == IMN_HOLDS
    assert verdict.route == "certificate"
    assert serialize_weights(verdict.certificate) == ("2", "-1")
    assert verdict.witness is None
    assert audit(verdict, spec)


def test_leavitt_rose_two_is_refuted():
    spec = AlgebraSpec(kind=KIND_LEAVITT, graph=rose_two())
    verdict = decide_imn(decide_ibn(spec))
    assert verdict.ibn == IBN_REFUTED
    assert verdict.imn == IMN_UNKNOWN
    assert verdict.route == "witness-construction"
    w = verdict.witness
    assert (w.m, w.m_prime) == (1, 2)
    assert w.trace_a.start == (1,) and w.trace_a.steps == ((0, (2,)),)
    assert w.trace_b.start == (2,) and w.trace_b.steps == ()
    assert verdict.certificate is None
    assert audit(verdict, spec)


def test_relative_family_is_refuted():
    fam, x = family(2, 1)
    spec = AlgebraSpec(kind=KIND_RELATIVE, graph=fam, x=x)
    verdict = decide_imn(decide_ibn(spec))
    assert verdict.ibn == IBN_REFUTED
    assert (verdict.witness.m, verdict.witness.m_prime) == (1, 2)
    assert verdict.witness.descendant == (2, 2, 2)
    assert audit(verdict, spec)


def test_relative_family_edge_instances_are_refuted():
    # n = 1 imposes every relation, so the target is the graph itself;
    # n = 3 exercises a target with a genuinely new sink.
    expected = {(1, 1): (2,), (3, 2): (2, 2, 2, 2)}
    for (n, m), descendant in expected.items():
        fam, x = family(n, m)
        spec = AlgebraSpec(kind=KIND_RELATIVE, graph=fam, x=x)
        verdict = decide_imn(decide_ibn(spec))
        assert verdict.ibn == IBN_REFUTED, (n, m)
        assert (verdict.witness.m, verdict.witness.m_prime) == (1, 2)
        assert verdict.witness.descendant == descendant
        assert audit(verdict, spec)


def test_leavitt_line_graph_is_certified():
    spec = AlgebraSpec(kind=KIND_LEAVITT, graph=line_graph())
    verdict = decide_imn(decide_ibn(spec))
    assert verdict.ibn == IBN_CERTIFIED
    assert verdict.imn == IMN_HOLDS
    third = Fraction(1, 3)
    assert verdict.certificate.weights == (third, third, third)
    assert audit(verdict, spec)


def test_unknown_when_bounds_too_tight():
    spec = AlgebraSpec(kind=KIND_LEAVITT, graph=rose_two())
    tight = SearchBounds(max_total_coefficient=1)
    verdict = decide_imn(decide_ibn(spec, tight))
    assert verdict.ibn == IBN_UNKNOWN
    assert verdict.imn == IMN_UNKNOWN
    assert verdict.route == "exhausted"
    assert verdict.certificate is None and verdict.witness is None
    assert audit(verdict, spec)


def test_verdict_reports_bounds_and_notes():
    spec = AlgebraSpec(kind=KIND_COHN, graph=rose_two())
    bounds = SearchBounds(max_states=10, max_total_coefficient=9, max_depth=8)
    verdict = decide_ibn(spec, bounds)
    assert verdict.bounds == bounds
    assert any("certificate verified" in n for n in verdict.notes)


def test_audit_rejects_tampered_certificate():
    spec = AlgebraSpec(kind=KIND_COHN, graph=rose_two())
    verdict = decide_imn(decide_ibn(spec))
    bad_cert = WeightCertificate(
        weights=(Fraction(3), Fraction(-2)), generators=verdict.target.vertices
    )
    tampered = dataclasses.replace(verdict, certificate=bad_cert)
    assert not audit(tampered, spec)


def test_audit_rejects_tampered_witness():
    spec = AlgebraSpec(kind=KIND_LEAVITT, graph=rose_two())
    verdict = decide_imn(decide_ibn(spec))
    w = verdict.witness
    bad_trace = ReductionTrace(start=w.trace_a.start, steps=((0, (7,)),))
    bad = ScalarWitness(
        base=w.base,
        m=w.m,
        m_prime=w.m_prime,
        descendant=w.descendant,
        trace_a=bad_trace,
        trace_b=w.trace_b,
    )
    assert not audit(dataclasses.replace(verdict, witness=bad), spec)


def test_audit_rejects_inconsistent_imn():
    spec = AlgebraSpec(kind=KIND_LEAVITT, graph=rose_two())
    verdict = decide_imn(decide_ibn(spec))
    lying = dataclasses.replace(verdict, imn=IMN_HOLDS)
    assert not audit(lying, spec)


def test_audit_rejects_wrong_spec():
    spec = AlgebraSpec(kind=KIND_COHN, graph=rose_two())
    verdict = decide_imn(decide_ibn(spec))
    other = AlgebraSpec(kind=KIND_COHN, graph=line_graph())
    assert not audit(verdict, other)


def test_audit_rejects_witness_on_wrong_base():
    spec = AlgebraSpec(kind=KIND_LEAVITT, graph=rose_two())
    verdict = decide_imn(decide_ibn(spec))
    w = verdict.witness
    shifted = ScalarWitness(
        base=(2,),
        m=w.m,
        m_prime=w.m_prime,
        descendant=w.descendant,
        trace_a=w.trace_a,
        trace_b=w.trace_b,
    )
    assert not audit(dataclasses.replace(verdict, witness=shifted), spec)


def _rose(n):
    """The Leavitt rose R_n: one vertex, n loops; R ~ R^n, so k0 = n - 1."""
    return graph_from(["v"], [(f"e{i}", "v", "v") for i in range(n)])


# u loops and feeds w; w feeds u three times and loops.  k0 = 3, and the
# torsion relation 3 rho = -3 r_u - r_w takes four firings from c*rho.
_DEEP = graph_from(
    ["u", "w"],
    [("a", "u", "u"), ("b", "u", "w"), ("c", "w", "u"), ("d", "w", "u"),
     ("e", "w", "u"), ("f", "w", "w")],
)


def test_witness_is_constructed_when_the_search_is_capped():
    spec = AlgebraSpec(kind=KIND_LEAVITT, graph=_DEEP)
    verdict = decide_imn(decide_ibn(spec, SearchBounds(max_states=1)))
    assert verdict.ibn == IBN_REFUTED
    assert verdict.imn == IMN_UNKNOWN
    assert verdict.route == "witness-construction"
    w = verdict.witness
    assert (w.m, w.m_prime, w.descendant) == (1, 4, (4, 4))
    assert "order of [1] in K0: k0=3" in verdict.notes
    assert any("also refutes IMN" in n for n in verdict.notes)
    assert audit(verdict, spec)


def test_exhausted_names_the_bound_the_construction_broke():
    spec = AlgebraSpec(kind=KIND_LEAVITT, graph=_DEEP)
    tight = SearchBounds(max_states=1, max_depth=3)
    verdict = decide_imn(decide_ibn(spec, tight))
    assert verdict.route == "exhausted"
    assert verdict.ibn == IBN_UNKNOWN
    assert "constructed witness breaks --max-depth=3: raise --max-depth to 4" in verdict.notes
    assert audit(verdict, spec)

    spec = AlgebraSpec(kind=KIND_LEAVITT, graph=rose_two())
    verdict = decide_ibn(spec, SearchBounds(max_total_coefficient=1))
    assert "constructed witness breaks --max-coeff=1: raise --max-coeff to 2" in verdict.notes

    # Every broken bound is named, not only the first one checked.
    spec = AlgebraSpec(kind=KIND_LEAVITT, graph=_DEEP)
    verdict = decide_ibn(spec, SearchBounds(max_total_coefficient=7, max_depth=3))
    assert verdict.route == "exhausted"
    assert [n for n in verdict.notes if n.startswith("constructed witness breaks")] == [
        "constructed witness breaks --max-coeff=7: raise --max-coeff to 8",
        "constructed witness breaks --max-depth=3: raise --max-depth to 4",
    ]


# u has two loops and feeds v twice; v and w feed each other.  The rows of
# v and w cancel, so the relation rows have rank 2 of 3, and k0 = 1 with
# rho = -r_u - r_v: the construction fires twice from rho.
_DEFICIENT = graph_from(
    ["u", "v", "w"],
    [("a", "u", "u"), ("b", "u", "u"), ("c", "u", "v"), ("d", "u", "v"),
     ("e", "v", "w"), ("f", "w", "v")],
)


def _no_search(*args, **kwargs):
    raise AssertionError("the witness search must not run")


def test_full_rank_exhausted_is_a_proof_and_runs_no_search(monkeypatch):
    monkeypatch.setattr(cohnibn.decision, "find_scalar_witness", _no_search)
    spec = AlgebraSpec(kind=KIND_LEAVITT, graph=_DEEP)
    verdict = decide_imn(decide_ibn(spec, SearchBounds(max_depth=3)))
    assert verdict.ibn == IBN_UNKNOWN and verdict.route == "exhausted"
    assert "constructed witness breaks --max-depth=3: raise --max-depth to 4" in verdict.notes
    assert any("no witness of any pair fits these bounds" in n for n in verdict.notes)
    assert audit(verdict, spec)


def test_rank_deficient_rows_fall_back_to_the_search(monkeypatch):
    calls = []
    real = cohnibn.decision.find_scalar_witness

    def recording(*args, **kwargs):
        calls.append(kwargs["step"])
        return real(*args, **kwargs)

    monkeypatch.setattr(cohnibn.decision, "find_scalar_witness", recording)
    spec = AlgebraSpec(kind=KIND_LEAVITT, graph=_DEFICIENT)
    verdict = decide_imn(decide_ibn(spec))
    assert verdict.route == "witness-construction" and calls == []
    assert verdict.witness.descendant == (2, 2, 2)

    # The construction takes two firings; the search joins rho and 2*rho
    # in one firing on each side.
    verdict = decide_imn(decide_ibn(spec, SearchBounds(max_depth=1)))
    assert calls == [1]
    assert verdict.ibn == IBN_REFUTED and verdict.route == "witness-search"
    w = verdict.witness
    assert (w.m, w.m_prime, w.descendant) == (1, 2, (2, 3, 1))
    assert not any("no witness of any pair" in n for n in verdict.notes)
    assert audit(verdict, spec)

    verdict = decide_imn(decide_ibn(spec, SearchBounds(max_total_coefficient=5)))
    assert calls == [1, 1]
    assert verdict.ibn == IBN_UNKNOWN and verdict.route == "exhausted"
    assert "constructed witness breaks --max-coeff=5: raise --max-coeff to 6" in verdict.notes
    assert not any("no witness of any pair" in n for n in verdict.notes)
    assert audit(verdict, spec)


def test_construction_agrees_with_the_search_it_replaces():
    # The procedure before the construction came first: search the pairs
    # k0 allows, and build the witness only where the search found none.
    rng = random.Random(0)
    tight = [
        SearchBounds(max_states=200, max_total_coefficient=16, max_depth=8),
        SearchBounds(max_states=200, max_depth=2),
        SearchBounds(max_states=200, max_total_coefficient=10),
    ]
    targets = deficient = 0
    while targets < 300:
        graph = make_random_graph(rng)
        rs = monoid_presentation(incidence(graph))
        if solve_exact(rs) is not None:
            continue
        rows = rs.relation_rows()
        rho = (1,) * rs.num_generators
        k0, relation, _ = torsion_order(rows, rho)
        bounds = tight[targets % len(tight)]
        targets += 1
        deficient += len(echelon_basis(rows)) < rs.num_rules
        old = find_scalar_witness(rho, rs, bounds, step=k0) is not None or (
            construct_scalar_witness(rs, k0, relation, bounds).witness is not None
        )
        spec = AlgebraSpec(kind=KIND_LEAVITT, graph=graph)
        verdict = decide_ibn(spec, bounds)
        assert verdict.ibn == (IBN_REFUTED if old else IBN_UNKNOWN), graph
        if verdict.ibn == IBN_REFUTED:
            assert (verdict.witness.m, verdict.witness.m_prime) == (1, 1 + k0)
        assert audit(verdict, spec)
    assert deficient >= 1


def test_large_k0_is_refuted_without_search(monkeypatch):
    # No cap on m' = 1 + k0 but the coefficient bound: R_n's witness
    # rho ~ n*rho peaks at n.
    monkeypatch.setattr(cohnibn.decision, "find_scalar_witness", _no_search)
    for n in (7, 8, 64):
        spec = AlgebraSpec(kind=KIND_LEAVITT, graph=_rose(n))
        verdict = decide_imn(decide_ibn(spec))
        assert verdict.ibn == IBN_REFUTED and verdict.imn == IMN_UNKNOWN
        assert verdict.route == "witness-construction"
        assert (verdict.witness.m, verdict.witness.m_prime) == (1, n)
        assert f"order of [1] in K0: k0={n - 1}" in verdict.notes
        assert audit(verdict, spec)
    verdict = decide_ibn(AlgebraSpec(kind=KIND_LEAVITT, graph=_rose(65)))
    assert verdict.route == "exhausted"
    assert "constructed witness breaks --max-coeff=64: raise --max-coeff to 65" in verdict.notes


def test_search_tries_only_pairs_the_order_allows(monkeypatch):
    tried = []
    real = cohnibn.rewriting.decide_equivalent

    def recording(a, b, *args, **kwargs):
        tried.append((a[0], b[0]))
        return real(a, b, *args, **kwargs)

    monkeypatch.setattr(cohnibn.rewriting, "decide_equivalent", recording)
    # R_2 joins rho and 2*rho; a step of 2 or 3 must pass over that pair.
    rs = monoid_presentation(incidence(_rose(2)))
    found = [find_scalar_witness((1,), rs, step=step) for step in (1, 2, 3)]
    assert [(w.m, w.m_prime) for w in found] == [(1, 2), (1, 3), (1, 4)]
    # Pairs are tried on closures; only the least pair that meets is
    # searched again, for its traces.
    assert tried == [(1, 2), (1, 3), (1, 4)]


def test_search_skips_pairs_over_the_coefficient_cap(monkeypatch):
    # No firing lowers a total, so a pair whose m'*rho is over the cap
    # cannot join; the search must not try such pairs.
    edges = [("n3", "n3"), ("n4", "n2"), ("n2", "n1"), ("n4", "n3"),
             ("n0", "n3"), ("n3", "n1"), ("n1", "n3"), ("n3", "n1"),
             ("n0", "n2")]
    graph = graph_from([f"n{i}" for i in range(5)],
                       [(f"e{i}", s, d) for i, (s, d) in enumerate(edges)])
    roots = []
    real = cohnibn.rewriting.forward_closure

    def recording(elem, *args, **kwargs):
        roots.append(sum(elem))
        return real(elem, *args, **kwargs)

    monkeypatch.setattr(cohnibn.rewriting, "forward_closure", recording)
    bounds = SearchBounds(max_states=1000)
    rs = monoid_presentation(incidence(graph))
    k0, _, _ = torsion_order(rs.relation_rows(), (1,) * rs.num_generators)
    find_scalar_witness((1,) * rs.num_generators, rs, bounds, step=k0)
    spec = AlgebraSpec(kind=KIND_LEAVITT, graph=graph)
    verdict = decide_imn(decide_ibn(spec, bounds))
    assert roots and max(roots) <= bounds.max_total_coefficient
    assert verdict.route == "witness-construction"
    assert audit(verdict, spec)


def _every_pair_in_order(vec, rs, bounds, step):
    """The pair loop of find_scalar_witness before it skipped any pair:
    its witness or None, and the number of pairs searched."""
    top = bounds.max_total_coefficient // sum(vec)
    searched = 0
    for m in range(1, top):
        for m_prime in range(m + step, top + 1, step):
            searched += 1
            out = decide_equivalent(scale(vec, m), scale(vec, m_prime), rs, bounds)
            if out.status == EQUIVALENT:
                witness = ScalarWitness(vec, m, m_prime, out.descendant,
                                        out.trace_a, out.trace_b)
                return witness, searched
    return None, searched


def test_skipped_pairs_leave_the_search_result_unchanged(monkeypatch):
    # In each, the least pair prunes firings, which leaves room under the
    # state cap that its shifted predecessor fills without joining: a pair
    # whose search prunes must not be skipped as a shift.  In the second,
    # that pair is (m, m + gap) at the least m the loop must still try.
    pinned = [
        (((0, 0, 1, 0, 0), (1, 2, 0, 2, 1), (0, 0, 0, 0, 1), (1, 0, 0, 0, 0),
          (0, 0, 0, 1, 0)),
         SearchBounds(max_states=17, max_total_coefficient=37, max_depth=2),
         (5, 6)),
        (((2, 0, 2), (0, 0, 1), (0, 0, 1)),
         SearchBounds(max_states=2, max_total_coefficient=9, max_depth=1),
         (2, 3)),
    ]
    for rule_add, bounds, pair in pinned:
        rs = RewriteSystem(tuple(f"n{i}" for i in range(len(rule_add[0]))), rule_add)
        x = (1,) * rs.num_generators
        want, _ = _every_pair_in_order(x, rs, bounds, 1)
        assert (want.m, want.m_prime) == pair
        assert find_scalar_witness(x, rs, bounds) == want

    tried = []
    real = cohnibn.rewriting.decide_equivalent

    def recording(a, b, *args, **kwargs):
        tried.append((a, b))
        return real(a, b, *args, **kwargs)

    monkeypatch.setattr(cohnibn.rewriting, "decide_equivalent", recording)
    rng = random.Random(21)
    targets = found = every = 0
    while targets < 30:
        rs = monoid_presentation(incidence(
            make_random_graph(rng, max_vertices=5, max_edges=10)))
        rows = rs.relation_rows()
        if solve_exact(rs) is not None or len(echelon_basis(rows)) == rs.num_rules:
            continue
        targets += 1
        k0, _, _ = torsion_order(rows, (1,) * rs.num_generators)
        n = rs.num_generators
        for _ in range(6):
            x = (1,) * n if rng.random() < 0.7 else tuple(
                rng.randint(0, 2) for _ in range(n - 1)) + (1,)
            bounds = SearchBounds(
                max_states=rng.randint(1, 40),
                max_total_coefficient=rng.randint(sum(x), 40),
                max_depth=rng.randint(1, 3),
            )
            step = rng.choice((1, k0))
            want, searched = _every_pair_in_order(x, rs, bounds, step)
            every += searched
            assert find_scalar_witness(x, rs, bounds, step) == want
            found += want is not None
    assert found and len(tried) < every / 2


def test_every_open_verdict_gives_k0_and_the_flag_to_raise():
    rng = random.Random(8)
    tight = SearchBounds(max_states=20, max_total_coefficient=8, max_depth=4)
    routes = set()
    for _ in range(150):
        spec = AlgebraSpec(kind=KIND_LEAVITT, graph=make_random_graph(rng))
        verdict = decide_imn(decide_ibn(spec, tight))
        routes.add(verdict.route)
        assert audit(verdict, spec)
        if verdict.ibn == IBN_CERTIFIED:
            continue
        assert any(n.startswith("order of [1] in K0: k0=") for n in verdict.notes)
        if verdict.ibn == IBN_UNKNOWN:
            assert any("raise --max-" in n for n in verdict.notes)
        else:
            assert any("also refutes IMN" in n for n in verdict.notes)
    assert {"certificate", "witness-construction", "exhausted"} <= routes


def test_infinite_order_without_certificate_is_an_invariant_violation(monkeypatch):
    monkeypatch.setattr(cohnibn.decision, "torsion_order", lambda rows, y: None)
    spec = AlgebraSpec(kind=KIND_LEAVITT, graph=rose_two())
    with pytest.raises(InternalInvariantViolation):
        decide_ibn(spec)


def test_audit_lets_unexpected_errors_through(monkeypatch):
    spec = AlgebraSpec(kind=KIND_COHN, graph=rose_two())
    verdict = decide_imn(decide_ibn(spec))

    def broken(spec):
        raise RuntimeError("bug in target resolution")

    monkeypatch.setattr(cohnibn.decision, "resolve_target", broken)
    with pytest.raises(RuntimeError):
        audit(verdict, spec)


def _rank(rows):
    """Rank over Q by Gaussian elimination on Fractions."""
    rows = [[Fraction(c) for c in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _in_lattice(rows, y):
    """Whether y is an integer combination of the rows: Euclid on each
    column brings the rows to echelon form, then y is reduced by them."""
    rows = [list(row) for row in rows if any(row)]
    y = list(y)
    for col in range(len(y)):
        live = [row for row in rows if row[col]]
        rows = [row for row in rows if not row[col]]
        while len(live) > 1:
            live.sort(key=lambda row: abs(row[col]))
            head = live[0]
            for row in live[1:]:
                q = row[col] // head[col]
                row[:] = [a - q * b for a, b in zip(row, head)]
            rows += [row for row in live[1:] if not row[col] and any(row)]
            live = [head] + [row for row in live[1:] if row[col]]
        if live:
            q, r = divmod(y[col], live[0][col])
            if r:
                return False
            y = [a - q * b for a, b in zip(y, live[0])]
        elif y[col]:
            return False
    return True


def _order_of_ones(relations, n, limit):
    """The least k <= limit with k * (1, ..., 1) in the lattice, or None."""
    return next(
        (k for k in range(1, limit + 1) if _in_lattice(relations, [k] * n)), None
    )


def _small_graphs():
    """Every graph on 1 or 2 vertices with edge multiplicities 0-2,
    with its incidence rows in input vertex order."""
    for n in (1, 2):
        names = [f"v{i}" for i in range(n)]
        for mult in itertools.product(range(3), repeat=n * n):
            rows = [list(mult[i * n:(i + 1) * n]) for i in range(n)]
            edges = [
                (f"e{i}{j}{k}", names[i], names[j])
                for i in range(n) for j in range(n) for k in range(rows[i][j])
            ]
            yield names, rows, graph_from(names, edges)


def test_every_graph_with_at_most_two_vertices_matches_the_criterion():
    # C^X(E) fails IBN exactly when the all-ones vector lies in the
    # Q-span of e_v - A_v over v in X (X empty: Cohn; X = Reg(E): Leavitt).
    bounds = SearchBounds(max_states=200)
    cases = refuted = 0
    for names, rows, graph in _small_graphs():
        n = len(names)
        regular = [i for i in range(n) if any(rows[i])]
        kinds = [
            (KIND_RELATIVE, x)
            for size in range(len(regular) + 1)
            for x in itertools.combinations(regular, size)
        ]
        kinds += [(KIND_COHN, ()), (KIND_LEAVITT, tuple(regular))]
        for kind, x in kinds:
            relations = [
                [int(i == j) - rows[i][j] for j in range(n)] for i in x
            ]
            ibn_holds = _rank(relations) < _rank(relations + [[1] * n])
            x_names = tuple(names[i] for i in x) if kind == KIND_RELATIVE else ()
            spec = AlgebraSpec(kind=kind, graph=graph, x=x_names)
            verdict = decide_imn(decide_ibn(spec, bounds))
            assert audit(verdict, spec), (rows, kind, x_names)
            assert (verdict.ibn == IBN_CERTIFIED) == ibn_holds, (rows, kind, x_names)
            if verdict.ibn == IBN_REFUTED:
                # R^m ~ R^m' puts (m' - m)[1] at 0 in K0, so the order of
                # [1] modulo the relations over X divides m' - m.
                gap = verdict.witness.m_prime - verdict.witness.m
                k0 = _order_of_ones(relations, n, gap)
                assert k0 is not None and gap % k0 == 0, (rows, kind, x_names)
                refuted += 1
            cases += kind == KIND_RELATIVE
    assert cases == 294
    assert refuted == 114
