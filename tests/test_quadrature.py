import math
import warnings

import numpy as np
import pytest

from layerr import quadrature
from layerr.quadrature import gauss_laguerre, gauss_legendre, grid, trapezoidal


def tensor_sum(g, integrand):
    """Tensor-product rule over the grid nodes: weights np.outer(w_t, w_phi)."""
    t, phi = np.meshgrid(g.t_rule.nodes, g.phi_rule.nodes, indexing="ij")
    return np.sum(np.outer(g.t_rule.weights, g.phi_rule.weights) * integrand(t, phi))


def test_gauss_legendre_n1_closed_form():
    rule = gauss_legendre(1)
    assert rule.nodes[0] == pytest.approx(0.0, abs=1e-15)
    assert rule.weights[0] == pytest.approx(2.0, abs=1e-15)


def test_gauss_legendre_n2_closed_form():
    rule = gauss_legendre(2)
    assert rule.nodes == pytest.approx([-1 / math.sqrt(3), 1 / math.sqrt(3)], abs=1e-15)
    assert rule.weights == pytest.approx([1.0, 1.0], abs=1e-15)


def test_gauss_legendre_quartic_exact():
    rule = gauss_legendre(3)
    val = np.sum(rule.weights * rule.nodes**4)
    assert val == pytest.approx(2.0 / 5.0, abs=1e-14)


def test_gauss_legendre_weight_sum_and_bounds():
    for n in (1, 2, 5, 16, 64):
        rule = gauss_legendre(n)
        assert abs(rule.weights.sum() - 2.0) < 1e-13
        assert np.all(np.diff(rule.nodes) > 0)
        assert np.all(rule.nodes > -1.0) and np.all(rule.nodes < 1.0)
        assert np.all(rule.weights > 0)


def test_gauss_legendre_degree_exactness_random_polynomials():
    rng = np.random.default_rng(42)
    for n in range(2, 21):
        rule = gauss_legendre(n)
        deg = 2 * n - 1
        coeffs = rng.uniform(-1, 1, deg + 1)
        # exact integral over [-1,1]: sum c_k (1 - (-1)^(k+1)) / (k+1)
        exact = sum(
            c * (1.0 - (-1.0) ** (k + 1)) / (k + 1) for k, c in enumerate(coeffs)
        )
        quad = np.sum(rule.weights * np.polyval(coeffs[::-1], rule.nodes))
        assert quad == pytest.approx(exact, rel=1e-12, abs=1e-12)


def test_gauss_legendre_node_symmetry():
    for n in (3, 8, 15, 30):
        rule = gauss_legendre(n)
        assert np.max(np.abs(rule.nodes + rule.nodes[::-1])) < 1e-14
        assert np.max(np.abs(rule.weights - rule.weights[::-1])) < 1e-14


def test_trapezoidal_nodes_and_weights():
    rule = trapezoidal(4)
    assert rule.nodes == pytest.approx([0.0, math.pi / 2, math.pi, 3 * math.pi / 2])
    assert rule.weights == pytest.approx([math.pi / 2] * 4)


def test_trapezoidal_kills_low_harmonics():
    rule = trapezoidal(8)
    assert abs(np.sum(rule.weights * np.cos(rule.nodes))) < 1e-15
    rule3 = trapezoidal(3)
    assert np.sum(rule3.weights) == pytest.approx(2 * math.pi, abs=1e-15)


def test_gauss_laguerre_basic_integrals():
    rule = gauss_laguerre(8)
    assert np.sum(rule.weights) == pytest.approx(1.0, abs=1e-13)
    assert np.sum(rule.weights * rule.nodes) == pytest.approx(1.0, abs=1e-12)
    assert np.sum(rule.weights * rule.nodes**7) == pytest.approx(5040.0, rel=1e-12)


def test_gauss_laguerre_moments_are_factorials():
    for n in (4, 8, 12):
        rule = gauss_laguerre(n)
        for m in range(2 * n):
            assert np.sum(rule.weights * rule.nodes**m) == pytest.approx(
                math.factorial(m), rel=1e-11
            )


def test_gauss_laguerre_nodes_increasing_positive():
    rule = gauss_laguerre(16)
    assert np.all(rule.nodes > 0)
    assert np.all(np.diff(rule.nodes) > 0)


def _laguerre_rule_is_sound(rule):
    x, w = rule.nodes, rule.weights
    return bool(
        np.all(np.isfinite(x))
        and np.all(np.isfinite(w))
        and np.all(np.diff(x) > 0)
        and np.all(w >= 0)
        and abs(np.sum(w) - 1.0) <= 1e-10
        and abs(np.sum(w * x) - 1.0) <= 1e-10
    )


def test_gauss_laguerre_large_n_without_overflow_warning():
    # weights below the double range are 0; the squares overflowed from n = 185
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rule = gauss_laguerre(200)
    assert _laguerre_rule_is_sound(rule)
    assert np.all(rule.weights[:100] > 0)


def test_gauss_laguerre_weights_are_the_per_node_formula():
    # the weights evaluate L_{n+1} at all nodes at once; each is bitwise the
    # scalar recurrence at its node
    for n in (1, 2, 8, 16, 64, 100):
        rule = gauss_laguerre(n)
        for x, w in zip(rule.nodes, rule.weights):
            l_next, _ = quadrature._laguerre_and_prev(n + 1, float(x))
            assert w == x / ((n + 1) ** 2 * l_next**2)


def test_gauss_laguerre_limit_is_the_largest_sound_rule(monkeypatch):
    limit = quadrature._LAGUERRE_MAX_N
    assert limit == 362
    assert _laguerre_rule_is_sound(gauss_laguerre(limit))
    with pytest.raises(ValueError, match=f"requires 1 <= n <= {limit}, got {limit + 1}"):
        gauss_laguerre(limit + 1)
    # one more node and the rule, built past the guard, is no longer sound
    monkeypatch.setattr(quadrature, "_LAGUERRE_MAX_N", limit + 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert not _laguerre_rule_is_sound(gauss_laguerre.__wrapped__(limit + 1))


def test_rules_cached_per_count():
    assert gauss_legendre(12) is gauss_legendre(12)
    assert trapezoidal(9) is trapezoidal(9)
    assert gauss_laguerre(8) is gauss_laguerre(8)
    assert grid(6, 12) is grid(6, 12)


def test_rules_reject_zero_points():
    for builder in (gauss_legendre, trapezoidal, gauss_laguerre):
        with pytest.raises(ValueError):
            builder(0)


def test_tensor_apply_constant():
    g = grid(5, 9)
    assert tensor_sum(g, lambda t, p: 1.0) == pytest.approx(4 * math.pi, abs=1e-13)


def test_tensor_apply_odd_in_t():
    g = grid(6, 8)
    assert tensor_sum(g, lambda t, p: t) == pytest.approx(0.0, abs=1e-13)


def test_tensor_apply_first_harmonic():
    g = grid(4, 5)
    assert tensor_sum(g, lambda t, p: np.sin(p)) == pytest.approx(0.0, abs=1e-13)


def test_tensor_apply_linearity():
    g = grid(4, 6)
    f1 = lambda t, p: t * t + np.cos(p)
    f2 = lambda t, p: np.exp(t) * np.sin(2 * p)
    lhs = tensor_sum(g, lambda t, p: 2.0 * f1(t, p) - 3.0 * f2(t, p))
    rhs = 2.0 * tensor_sum(g, f1) - 3.0 * tensor_sum(g, f2)
    assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-13)


def test_grid_counts():
    g = grid(7, 13)
    assert g.n_t == 7 and g.n_phi == 13
    assert g.t_rule.n == 7 and g.phi_rule.n == 13
    assert len(g.t_rule.nodes) * len(g.phi_rule.nodes) == 7 * 13
