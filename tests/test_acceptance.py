"""Acceptance gate: twelve criteria, one test and one PASS line each.

Each test prints a single line on success so a verbose run reads as a
checklist.  Random inputs use fixed seeds; every numeric comparison is
exact (integer or rational), so there are no tolerances to tune.
"""

import random
from collections import Counter
from fractions import Fraction

from cohnibn import (
    AlgebraSpec,
    EQUIVALENT,
    IBN_CERTIFIED,
    IBN_REFUTED,
    KIND_COHN,
    KIND_LEAVITT,
    KIND_RELATIVE,
    IMN_HOLDS,
    IMN_UNKNOWN,
    NOT_EQUIVALENT,
    SearchBounds,
    audit,
    cohn_companion,
    cohn_presentation,
    decide_equivalent,
    decide_ibn,
    f_line_graph,
    f_rose_two,
    family,
    gamma,
    incidence,
    line_graph,
    rose_two,
    scale,
    solve_exact,
    verify_certificate,
)
from conftest import (
    closure_normal_form,
    companion_rank_check,
    corpus_graphs,
    corpus_specs,
    make_random_graph,
    one_step,
    run_cli,
)

ACCEPT_BOUNDS = SearchBounds(max_states=100_000, max_total_coefficient=64)


def _verdicts():
    out = []
    for name, spec in corpus_specs():
        verdict = decide_ibn(spec, ACCEPT_BOUNDS)
        assert audit(verdict, spec), name
        out.append((name, spec, verdict))
    return out


def test_criterion_01_companion_of_rose_two():
    comp = cohn_companion(rose_two()).graph
    assert len(comp.vertices) == 2
    assert len(comp.edges) == 4
    rs = incidence(comp)
    assert rs.rule_add == ((2, 2),)
    assert rs.num_rules == 1  # the zero row: v' is a sink
    print("PASS criterion 1: companion of R2 has 2 vertices, 4 edges, "
          "incidence [[2,2],[0,0]]")


def test_criterion_02_cohn_rose_two_certificate():
    spec = AlgebraSpec(kind=KIND_COHN, graph=rose_two())
    verdict = decide_ibn(spec, ACCEPT_BOUNDS)
    assert verdict.ibn == IBN_CERTIFIED
    cert = verdict.certificate
    assert cert.weights == (Fraction(2), Fraction(-1))
    rs = incidence(verdict.target)
    assert verify_certificate(cert, rs)
    assert sum(cert.weights) == 1
    rho = (1,) * len(cert.weights)
    for m in range(1, 11):
        assert gamma(cert, scale(rho, m)) == m
    print("PASS criterion 2: Cohn(R2) certified with weights (2,-1); "
          "Gamma(m*rho)=m for m=1..10")


def test_criterion_03_refutations_with_replayable_traces():
    spec = AlgebraSpec(kind=KIND_LEAVITT, graph=rose_two())
    verdict = decide_ibn(spec, ACCEPT_BOUNDS)
    assert verdict.ibn == IBN_REFUTED
    w = verdict.witness
    assert (w.m, w.m_prime) == (1, 2)
    assert w.trace_a.start == (1,) and w.trace_a.steps == ((0, (2,)),)
    assert w.trace_b.start == (2,) and w.descendant == (2,)
    assert audit(verdict, spec)

    fam, x = family(2, 1)
    rel_spec = AlgebraSpec(kind=KIND_RELATIVE, graph=fam, x=x)
    rel = decide_ibn(rel_spec, ACCEPT_BOUNDS)
    assert rel.ibn == IBN_REFUTED
    assert (rel.witness.m, rel.witness.m_prime) == (1, 2)
    assert rel.witness.trace_a.start == (1, 1, 1)
    assert rel.witness.descendant == (2, 2, 2)
    assert rel.witness.descendant == scale(rel.witness.trace_a.start, 2)
    assert audit(rel, rel_spec)
    print("PASS criterion 3: Leavitt(R2) refuted with trace (1)~(2); "
          "relative family(2,1) refuted with rho~2rho")


def test_criterion_04_normal_forms():
    rs_line = incidence(line_graph())
    assert closure_normal_form((1, 1, 1), rs_line) == (0, 0, 3)

    f_line = f_line_graph()
    rs_f = incidence(f_line)
    assert f_line.vertices == ("u", "v", "w", "u'", "v'")
    nf = closure_normal_form((1, 1, 1, 1, 1), rs_f)
    assert nf == (0, 0, 3, 1, 2)
    assert nf[2:] == (3, 1, 2)  # coefficients on (w, u', v')
    print("PASS criterion 4: rho normalizes to (3,1,2) on (w,u',v') in "
          "M_F(line) and to 3 in M_line")


def test_criterion_05_parity_reductions_in_companion_of_rose_two():
    rs = incidence(f_rose_two())
    cert = solve_exact(rs)
    for m in range(2, 11, 2):
        out = decide_equivalent((m, m), (m // 2, 0), rs, ACCEPT_BOUNDS)
        assert out.status == EQUIVALENT, m
    for m in range(1, 10, 2):
        out = decide_equivalent((m, m), ((m + 1) // 2, 1), rs, ACCEPT_BOUNDS)
        assert out.status == EQUIVALENT, m
    for m in range(1, 6):
        for m_prime in range(1, 6):
            if m == m_prime:
                continue
            out = decide_equivalent(
                (m, 0), (m_prime, 0), rs, ACCEPT_BOUNDS, invariant=cert
            )
            assert out.status == NOT_EQUIVALENT
            assert out.reason == "gamma-separation"
    print("PASS criterion 5: (m,m)~(m/2,0) even, (m,m)~((m+1)/2,1) odd, "
          "(m,0) separated from (m',0) by Gamma")


def test_criterion_06_torsion_without_ibn_failure():
    rs = incidence(f_rose_two())
    out = decide_equivalent((1, 2), (2, 4), rs, ACCEPT_BOUNDS)
    assert out.status == EQUIVALENT
    assert len(out.trace_a.steps) + len(out.trace_b.steps) == 1
    assert out.trace_a.replay(rs) == out.descendant

    verdict = decide_ibn(AlgebraSpec(kind=KIND_COHN, graph=rose_two()),
                         ACCEPT_BOUNDS)
    assert verdict.ibn == IBN_CERTIFIED
    print("PASS criterion 6: (1,2)~(2,4) via a 1-step trace while Cohn(R2) "
          "stays certified")


def test_criterion_07_main_theorem_at_scale():
    rng = random.Random(2024)
    count = 200
    for i in range(count):
        g = make_random_graph(rng)
        verdict = decide_ibn(AlgebraSpec(kind=KIND_COHN, graph=g),
                             ACCEPT_BOUNDS)
        assert verdict.ibn == IBN_CERTIFIED, (i, g)
        assert verdict.certificate is not None
        assert companion_rank_check(g), (i, g)
    print(f"PASS criterion 7: {count}/{count} random graphs: Cohn algebra "
          "certified and companion rank check t+1")


def test_criterion_08_gamma_invariance_suite():
    rng = random.Random(77)
    triples = 0
    seeds = [line_graph(), rose_two()]
    while triples < 1000:
        g = seeds.pop() if seeds else make_random_graph(rng)
        rs = incidence(cohn_companion(g).graph)
        cert = solve_exact(rs)
        assert cert is not None
        for _ in range(20):
            elem = tuple(rng.randint(0, 5) for _ in range(rs.num_generators))
            value = gamma(cert, elem)
            for succ in one_step(elem, rs):
                assert gamma(cert, succ) == value
                triples += 1
    print(f"PASS criterion 8: {triples} (certificate, element, successor) "
          "triples with exactly invariant Gamma")


def test_criterion_09_mutual_exclusion_and_gamma_vs_search():
    for name, spec, verdict in _verdicts():
        has_cert = verdict.certificate is not None and verify_certificate(
            verdict.certificate,
            incidence(verdict.target),
        )
        has_witness = verdict.witness is not None
        assert not (has_cert and has_witness), name

    # Wherever Gamma separates a pair, the bounded search must not find a
    # common descendant.
    checked = 0
    for name, graph, _ in corpus_graphs():
        rs = incidence(graph)
        cert = solve_exact(rs)
        if cert is None:
            continue
        rho = (1,) * rs.num_generators
        pairs = [
            (scale(rho, m), scale(rho, m_prime))
            for m in range(1, 4)
            for m_prime in range(1, 4)
            if m != m_prime
        ]
        if rs.num_generators >= 2:
            pairs.append(
                (
                    (1,) + (0,) * (rs.num_generators - 1),
                    (2,) + (0,) * (rs.num_generators - 1),
                )
            )
        for a, b in pairs:
            if gamma(cert, a) == gamma(cert, b):
                continue
            out = decide_equivalent(a, b, rs, ACCEPT_BOUNDS)
            assert out.status != EQUIVALENT, (name, a, b)
            checked += 1
    assert checked >= 20
    print(f"PASS criterion 9: no verdict carries both kinds of evidence; "
          f"{checked} Gamma-separated pairs stayed non-equivalent under "
          "search at 100000 states / total 64")


def test_criterion_10_cohn_monoid_bookkeeping():
    rng = random.Random(4096)
    bounds = SearchBounds(max_states=100_000, max_total_coefficient=128)
    pairs_checked = 0
    for _ in range(20):
        g = make_random_graph(rng, max_vertices=4, max_edges=6)
        rs = cohn_presentation(g)
        n = len(g.vertices)
        rho_v = (1,) * n + (0,) * (rs.num_generators - n)

        for m in (1, 2):
            start = scale(rho_v, m)

            def random_walk():
                current = start
                steps = []
                for _ in range(rng.randint(0, 3)):
                    succs = one_step(current, rs)
                    if not succs:
                        break
                    nxt = succs[rng.randrange(len(succs))]
                    for gen, add in rs.rules():
                        if current[gen] >= 1 and tuple(
                            c + a - (1 if j == gen else 0)
                            for j, (c, a) in enumerate(zip(current, add))
                        ) == nxt:
                            steps.append(gen)
                            break
                    current = nxt
                return current, steps

            a, steps_a = random_walk()
            b, steps_b = random_walk()
            out = decide_equivalent(a, b, rs, bounds)
            assert out.status == EQUIVALENT, (g, a, b)
            counts_a = Counter(gen for gen, _ in out.trace_a.steps)
            counts_b = Counter(gen for gen, _ in out.trace_b.steps)
            for gen in steps_a:
                counts_a[gen] += 1
            for gen in steps_b:
                counts_b[gen] += 1
            assert counts_a == counts_b, (g, a, b)
            # q-coefficients of the meeting point record the firing counts.
            for k in range(rs.num_rules):
                assert out.descendant[n + k] == counts_a.get(k, 0)
            pairs_checked += 1

        for m in range(1, 4):
            for m_prime in range(m + 1, 5):
                out = decide_equivalent(
                    scale(rho_v, m), scale(rho_v, m_prime), rs, bounds
                )
                assert out.status != EQUIVALENT, (g, m, m_prime)

    print(f"PASS criterion 10: rule counts agree on {pairs_checked} "
          "equivalent pairs; no m*rho_V ~ m'*rho_V up to maxM=4")


def test_criterion_11_imn_inference():
    for name, spec, verdict in _verdicts():
        if verdict.ibn == IBN_CERTIFIED:
            assert verdict.imn == IMN_HOLDS, name
        else:
            assert verdict.imn == IMN_UNKNOWN, name
    print("PASS criterion 11: IMN holds exactly on certified verdicts "
          "across the corpus")


def criterion_12_invocations() -> list[list[str]]:
    """The CLI calls whose reports criterion 12 runs twice."""
    invocations = []
    for name, _, x in corpus_graphs():
        if name.startswith("family"):
            continue
        invocations.append(["examples", name])
        invocations.append(["companion", "--example", name])
        invocations.append(
            ["ibn-check", "--example", name, "--algebra", "cohn"]
        )
        invocations.append(
            ["ibn-check", "--example", name, "--algebra", "leavitt",
             "--format", "json"]
        )
    invocations += [
        ["examples"],
        ["examples", "family-3-2"],
        ["family", "3", "2"],
        ["family", "2", "1", "--format", "json"],
        ["companion", "--family", "2", "1", "--x", "v2", "--format", "json"],
        ["ibn-check", "--example", "relative-2-1", "--algebra", "relative"],
        ["ibn-check", "--family", "3", "2", "--algebra", "relative",
         "--format", "json"],
        ["monoid-equiv", "--example", "f-r2", "-a", "1,0", "-b", "2,0"],
        ["monoid-equiv", "--example", "f-r2", "-a", "1,2", "-b", "2,4",
         "--format", "json"],
        ["monoid-equiv", "--example", "r2", "--presentation", "cohn",
         "-a", "1,0", "-b", "2,1"],
        ["ibn-check", "--example", "r2", "--algebra", "leavitt",
         "--max-coeff", "1"],
    ]
    return invocations


def test_criterion_12_cli_determinism():
    invocations = criterion_12_invocations()
    for argv in invocations:
        first = run_cli(argv)
        second = run_cli(argv)
        assert first == second, argv
        assert first[0] in (0, 10, 20), argv
    print(f"PASS criterion 12: {len(invocations)} CLI invocations, each "
          "byte-identical across repeated runs")
