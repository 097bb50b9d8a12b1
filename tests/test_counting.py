from fractions import Fraction
from math import comb

import pytest

from darkcount.counting import (
    count_dark_uniform_oracle,
    ndark_formula,
    order_parameter,
    sweep,
    sweep_to_csv,
    sweep_to_svg,
    thermodynamic_order,
)


def test_formula_examples():
    assert ndark_formula(4, 2) == 2
    assert ndark_formula(4, 3) == 0
    assert ndark_formula(20, 10) == 16796


def test_formula_edge_cases():
    assert ndark_formula(4, 0) == 1  # C(N,-1) := 0
    assert ndark_formula(1, 0) == 1
    assert ndark_formula(1, 1) == 0
    with pytest.raises(ValueError):
        ndark_formula(4, 5)
    with pytest.raises(ValueError):
        ndark_formula(-1, 0)


def test_formula_uses_big_integers():
    # far past 64-bit territory
    value = ndark_formula(200, 100)
    assert value == comb(200, 100) - comb(200, 99)
    assert value.bit_length() > 64


def test_order_parameter_examples():
    assert order_parameter(4, 1) == Fraction(3, 4)
    assert order_parameter(20, 10) == Fraction(1, 11)
    assert order_parameter(4, 3) == 0


@pytest.mark.parametrize("n", range(1, 16))
def test_order_parameter_closed_form(n):
    for s in range(n + 1):
        o = order_parameter(n, s)
        if 2 * s <= n:
            assert o == Fraction(n - 2 * s + 1, n - s + 1)
        else:
            assert o == 0
        assert o == Fraction(ndark_formula(n, s), comb(n, s))


@pytest.mark.parametrize("n", range(2, 13))
def test_order_parameter_strictly_decreasing_to_midpoint(n):
    top = -(-n // 2)  # ceil(n/2)
    values = [order_parameter(n, s) for s in range(top + 1)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_thermodynamic_examples():
    assert thermodynamic_order(0.0) == 1.0
    assert thermodynamic_order(0.25) == pytest.approx(2.0 / 3.0)
    assert thermodynamic_order(0.6) == 0.0
    assert thermodynamic_order(0.5) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        thermodynamic_order(1.5)


def test_finite_size_converges_to_thermodynamic_curve():
    alpha = 0.25
    errors = [
        abs(float(order_parameter(n, round(alpha * n))) - thermodynamic_order(alpha))
        for n in (4, 8, 12, 16, 20)
    ]
    assert all(a > b for a, b in zip(errors, errors[1:]))


def test_oracle_examples():
    assert count_dark_uniform_oracle(2, 1) == 1
    assert count_dark_uniform_oracle(4, 2) == 2
    assert count_dark_uniform_oracle(6, 2) == 9


@pytest.mark.parametrize("n", range(1, 9))
def test_oracle_equals_formula(n):
    for s in range(n + 1):
        assert count_dark_uniform_oracle(n, s) == ndark_formula(n, s)


def test_oracle_cap():
    with pytest.raises(ValueError, match="cap"):
        count_dark_uniform_oracle(13, 6)


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
def test_angular_momentum_completeness(n):
    # each spin-S multiplet appearing N_dark(N, s) times with S = N/2 - s
    # has 2S + 1 magnetic states; together they tile the full product space
    total = sum(
        ndark_formula(n, s) * (2 * (n / 2 - s) + 1) for s in range(n // 2 + 1)
    )
    assert total == 2**n


def test_sweep_single_n():
    records = sweep([4])
    assert len(records) == 5
    rec = next(r for r in records if r.n_excited == 2)
    assert rec.order_param == Fraction(1, 3)
    assert rec.n_dark == 2
    assert rec.sector_size == 6


def test_sweep_marker_set():
    records = sweep([4, 8, 12, 16, 20])
    assert len(records) == 5 + 9 + 13 + 17 + 21
    rec = next(r for r in records if (r.n_qubits, r.n_excited) == (20, 10))
    assert rec.order_param == Fraction(1, 11)
    rec = next(r for r in records if (r.n_qubits, r.n_excited) == (8, 2))
    assert rec.order_param == Fraction(5, 7)
    assert all(r.order_param == 0 for r in records if 2 * r.n_excited > r.n_qubits)


def test_sweep_exact_ratio_invariant():
    for rec in sweep([3, 5, 7]):
        assert rec.order_param * rec.sector_size == rec.n_dark
        assert 0 <= rec.alpha <= 1
        assert 0 <= rec.order_param <= 1


def test_sweep_csv_layout():
    text = sweep_to_csv(sweep([4]))
    lines = text.strip().splitlines()
    assert lines[0] == "N,s,alpha,order_param,n_dark,sector_size"
    assert lines[2] == "4,1,0.25,0.75,3,4"
    assert len(lines) == 6


def test_sweep_svg_is_wellformed():
    import xml.etree.ElementTree as ET

    svg = sweep_to_svg(sweep([4, 8]))
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    assert "polyline" in svg  # thermodynamic curve present
