"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
Every tolerance is pinned here; nothing is deferred to calibration.
"""

import itertools
import math
import random
import time

import pytest

from hammocknet import (
    GridNode,
    HammockSpec,
    Terminal,
    boundary_sums,
    inverse_minor_element,
    kirchhoff_residual,
    node_index,
    reconstruct_currents,
    resistance_dense,
    resistance_general,
    resistance_matrix,
    resistance_rt,
    resistance_same_column,
    resistance_same_row,
    resistance_spectral,
)

from _util import all_nodes, cosine_sum_identity, interior_pairs, recurrence_residual, rel_dev

RS_GRID = [(1.0, 1.0), (2.0, 1.0), (1.0, 3.0)]


def _verdict(number: int, name: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number} {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"criterion {number} ({name}): {detail}"


def test_criterion_1_four_way_agreement():
    tolerance = 1e-10
    start = time.perf_counter()
    worst = 0.0
    pairs = 0
    for rows, cols in itertools.product(range(1, 6), range(1, 6)):
        for r, s in RS_GRID:
            spec = HammockSpec(rows, cols, r, s)
            exact = resistance_matrix(spec, "rational")
            for a, b in interior_pairs(spec):
                reference = float(exact[node_index(spec, a)][node_index(spec, b)])
                values = [resistance_general(spec, a, b).ohms,
                          resistance_spectral(spec, a, b).ohms,
                          resistance_rt(spec, a, b).ohms,
                          reference]
                worst = max(worst, rel_dev(values))
                pairs += 1
    elapsed = time.perf_counter() - start
    ok = worst < tolerance and elapsed < 120.0
    _verdict(1, "four-way agreement", ok,
             f"{pairs} pair evaluations, max rel dev {worst:.3e}, {elapsed:.1f} s")


def test_criterion_2_specialization_equivalence():
    tolerance = 1e-12
    worst = 0.0
    checked = 0
    for rows, cols in itertools.product(range(1, 7), range(1, 7)):
        spec = HammockSpec(rows, cols)
        for x in range(1, cols + 1):
            for y1, y2 in itertools.combinations_with_replacement(
                    range(1, rows + 1), 2):
                values = [resistance_same_column(spec, x, y1, y2).ohms,
                          resistance_general(spec, (x, y1), (x, y2)).ohms]
                worst = max(worst, rel_dev(values))
                checked += 1
        for y in range(1, rows + 1):
            for x1 in range(1, cols // 2 + 1):
                x2 = cols + 1 - x1
                values = [resistance_same_row(spec, y, x1, x2).ohms,
                          resistance_general(spec, (x1, y), (x2, y)).ohms]
                worst = max(worst, rel_dev(values))
                checked += 1
    _verdict(2, "specialization equivalence", worst < tolerance,
             f"{checked} comparisons, max rel dev {worst:.3e}")


def test_criterion_3_analytic_pins():
    failures = []
    for rows, s in [(2, 1.0), (5, 1.0), (3, 2.5)]:
        spec = HammockSpec(rows, 1, r=7.0, s=s)
        for y1, y2 in itertools.combinations(range(1, rows + 1), 2):
            value = resistance_general(spec, (1, y1), (1, y2)).ohms
            expected = s * abs(y2 - y1)
            if abs(value - expected) > 1e-12 * expected:
                failures.append(f"chain {rows}x1 s={s}: {value} != {expected}")
    spec = HammockSpec(1, 2)
    for method in (resistance_general, resistance_spectral, resistance_rt):
        value = method(spec, (1, 1), (2, 1)).ohms
        if abs(value - 0.5) > 1e-12:
            failures.append(f"{method.__name__}: {value} != 0.5")
    if abs(resistance_dense(spec, (1, 1), (2, 1)).ohms - 0.5) > 1e-12:
        failures.append("dense oracle != 0.5")
    for s in (1.0, 2.5):
        tiny = HammockSpec(1, 1, s=s)
        spoke = resistance_dense(tiny, (1, 1), Terminal.BOTTOM).ohms
        across = resistance_dense(tiny, Terminal.BOTTOM, Terminal.TOP).ohms
        if abs(spoke - s) > 1e-12 * s or abs(across - 2 * s) > 1e-12 * s:
            failures.append(f"1x1 s={s}: spoke={spoke}, across={across}")
    _verdict(3, "analytic pins", not failures, "; ".join(failures) or "all pins hold")


def test_criterion_4_cosine_sum_identity():
    tolerance = 1e-12
    worst = 0.0
    checked = 0
    for cols in range(1, 9):
        for ell in range(0, 2 * cols + 1):
            for omega in (0.1, 0.5, 1.0, 2.0):
                lhs, rhs = cosine_sum_identity(cols, ell, omega)
                worst = max(worst, rel_dev([lhs, rhs]))
                checked += 1
    _verdict(4, "cosine-sum identity", worst < tolerance,
             f"{checked} evaluations, max rel dev {worst:.3e}")


def test_criterion_5_boundary_sums():
    tolerance = 1e-10
    worst = 0.0
    checked = 0
    for rows, cols in itertools.product(range(1, 7), range(1, 7)):
        spec = HammockSpec(rows, cols)
        bottom = [(x, 1) for x in range(1, cols + 1)]
        closed1, _ = boundary_sums(spec, (1, 1), (1, 1))
        numeric1 = sum(inverse_minor_element(spec, u, v)
                       for u in bottom for v in bottom)
        worst = max(worst, rel_dev([closed1, numeric1]))
        checked += 1
        for a, b in interior_pairs(spec):
            _, closed2 = boundary_sums(spec, a, b)
            numeric2 = sum(inverse_minor_element(spec, u, a)
                           - inverse_minor_element(spec, u, b) for u in bottom)
            # the sum vanishes at equal heights, so compare on an absolute
            # scale tied to the closed form's own units
            scale = max(abs(closed2), float(spec.s))
            worst = max(worst, abs(numeric2 - closed2) / scale)
            checked += 1
    _verdict(5, "boundary sums", worst < tolerance,
             f"{checked} sums, max deviation {worst:.3e}")


def test_criterion_6_current_field_audit():
    tolerance = 1e-10
    rng = random.Random(2024)
    worst_node = 0.0
    worst_column = 0.0
    audited = 0
    while audited < 50:
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        spec = HammockSpec(rows, cols,
                           r=rng.choice([0.5, 1.0, 2.0, 4.0]),
                           s=rng.choice([0.5, 1.0, 3.0]))
        a = GridNode(rng.randint(1, cols), rng.randint(1, rows))
        b = GridNode(rng.randint(1, cols), rng.randint(1, rows))
        if a == b:
            continue
        injected = rng.choice([1.0, -1.0, 2.5, 0.3])
        field = reconstruct_currents(spec, a, b, injected)
        worst_node = max(worst_node, kirchhoff_residual(field) / abs(injected))
        worst_column = max(worst_column, recurrence_residual(field) / abs(injected))
        audited += 1
    ok = worst_node < tolerance and worst_column < tolerance
    _verdict(6, "current-field audit", ok,
             f"{audited} instances, node residual {worst_node:.3e}, "
             f"column residual {worst_column:.3e}")


def test_criterion_7_stability_at_scale():
    spec = HammockSpec(10_000, 10_000)
    rng = random.Random(7)
    resistance_general(spec, (1, 1), (2, 2))  # warm the mode tables
    resistance_rt(spec, (1, 1), (2, 2))
    worst_time = 0.0
    ok = True
    for _ in range(20):
        a = GridNode(rng.randint(1, spec.cols), rng.randint(1, spec.rows))
        b = GridNode(rng.randint(1, spec.cols), rng.randint(1, spec.rows))
        if a == b:
            b = GridNode(a.x % spec.cols + 1, a.y)
        for method in (resistance_general, resistance_rt):
            start = time.perf_counter()
            value = method(spec, a, b).ohms
            elapsed = time.perf_counter() - start
            worst_time = max(worst_time, elapsed)
            ok = ok and math.isfinite(value) and value > 0.0 and elapsed < 0.1
    _verdict(7, "stability at scale", ok,
             f"20 pairs at 10000x10000, slowest call {worst_time * 1e3:.1f} ms")


def test_criterion_8_property_suites():
    failures = []
    specs = [HammockSpec(rows, cols, r, s)
             for rows in range(1, 4) for cols in range(1, 4)
             for r, s in [(1.0, 1.0), (2.0, 1.0)]]

    for spec in specs:
        for a, b in interior_pairs(spec):
            base = resistance_general(spec, a, b).ohms
            for scale in (2.0, 0.5, 3.7):
                scaled_spec = HammockSpec(spec.rows, spec.cols,
                                          scale * spec.r, scale * spec.s)
                scaled = resistance_general(scaled_spec, a, b).ohms
                if abs(scaled - scale * base) > 1e-12 * scale * base:
                    failures.append(f"homogeneity {spec} {a}-{b} x{scale}")
            if resistance_general(spec, b, a).ohms != base:
                failures.append(f"exchange {spec} {a}-{b}")
            vert = resistance_general(
                spec, GridNode(a.x, spec.rows + 1 - a.y),
                GridNode(b.x, spec.rows + 1 - b.y)).ohms
            horiz = resistance_general(
                spec, GridNode(spec.cols + 1 - a.x, a.y),
                GridNode(spec.cols + 1 - b.x, b.y)).ohms
            if abs(vert - base) > 1e-12 * base or abs(horiz - base) > 1e-12 * base:
                failures.append(f"mirror {spec} {a}-{b}")

    for spec in specs:
        table = resistance_matrix(spec)
        nodes = [node_index(spec, n) for n in all_nodes(spec)]
        for i, j, k in itertools.permutations(nodes, 3):
            if table[i, k] > table[i, j] + table[j, k] + 1e-12:
                failures.append(f"triangle {spec} {i},{j},{k}")

    _verdict(8, "property suites", not failures,
             "; ".join(failures[:3]) or "scaling, exchange, mirrors, triangle all hold")
