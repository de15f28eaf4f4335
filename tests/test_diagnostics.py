import numpy as np
import pytest

import nskwave as nw
from nskwave import diagnostics
from nskwave.solver import discrete_gradient_w


@pytest.fixture()
def small_setup(composite_std, model14):
    grid = nw.Grid(-40.0, 40.0, 512)
    state = nw.initial_data(grid, composite_std, nw.Perturbation())
    return grid, state


def background(composite, grid, state):
    return composite.eval_bar(state.t, grid.x, state.X)


def good_terms(grid, state, composite):
    return diagnostics.good_terms(grid, state, background(composite, grid, state),
                                  composite.pattern, composite.model)


def gaussian(x, amp, center, width):
    return amp * np.exp(-((x - center) ** 2) / (2.0 * width ** 2))


def test_entropy_density_basic(model14):
    assert diagnostics.relative_entropy_density(1.0, 0.5, 0.1, 1.0, 0.5, 0.1, model14) == 0.0
    val = diagnostics.relative_entropy_density(1.0, 0.7, 0.0, 1.0, 0.5, 0.0, model14)
    assert val == pytest.approx(0.02)
    rng = np.random.default_rng(2)
    v, vb = rng.uniform(0.5, 2.0, 100), rng.uniform(0.5, 2.0, 100)
    u, ub = rng.normal(size=100), rng.normal(size=100)
    w, wb = rng.normal(size=100), rng.normal(size=100)
    eta = diagnostics.relative_entropy_density(v, u, w, vb, ub, wb, model14)
    assert np.all(eta >= 0.5 * (u - ub) ** 2)


def test_entropy_locally_equivalent_to_l2(model14):
    rng = np.random.default_rng(4)
    vb = rng.uniform(0.85, 1.05, 2000)
    phi = rng.uniform(-0.3, 0.3, 2000)
    psi = rng.uniform(-0.3, 0.3, 2000)
    om = rng.uniform(-0.3, 0.3, 2000)
    eta = diagnostics.relative_entropy_density(vb + np.abs(phi) + 0.01, psi, om,
                                               vb, 0.0, 0.0, model14)
    dist = (np.abs(phi) + 0.01) ** 2 + psi ** 2 + om ** 2
    c = np.min(eta / dist)
    assert c > 0.0


def test_weighted_entropy_zero_perturbation(small_setup, composite_std):
    grid, state = small_setup
    state.w = composite_std.eval_bar(0.0, grid.x, 0.0)["w"]  # exact constraint field
    val = diagnostics.weighted_relative_entropy(
        grid, state, background(composite_std, grid, state), composite_std.model)
    assert val < 1e-12


def test_weighted_entropy_dominates_unweighted_l2(small_setup, composite_std):
    grid, state = small_setup
    state.u = state.u + gaussian(grid.x, 1e-2, 0.0, 3.0)
    bar = background(composite_std, grid, state)
    val = diagnostics.weighted_relative_entropy(grid, state, bar, composite_std.model)
    norms = diagnostics.perturbation_norms(grid, state, bar)
    assert val >= 0.5 * (norms["L2_psi"] ** 2 + norms["L2_omega"] ** 2) - 1e-12


def test_good_terms_zero_perturbation(small_setup, composite_std):
    grid, state = small_setup
    state.w = composite_std.eval_bar(0.0, grid.x, 0.0)["w"]
    terms = good_terms(grid, state, composite_std)
    assert set(terms) == {"G1", "G3", "GSu", "GSv", "GR", "Gw", "Du1", "Du2", "Dw1", "Dw2"}
    assert all(abs(v) < 1e-20 for v in terms.values())


def test_good_terms_quadratic_scaling(small_setup, composite_std):
    grid, state = small_setup
    bar = composite_std.eval_bar(0.0, grid.x, 0.0)
    bump_v = gaussian(grid.x, 1e-5, 1.0, 4.0)
    bump_u = gaussian(grid.x, 1e-5, -2.0, 5.0)
    bump_w = gaussian(grid.x, 1e-5, 0.5, 3.0)

    def build(scale):
        st = nw.SimState(v=bar["v"] + scale * bump_v, u=bar["u"] + scale * bump_u,
                         w=np.asarray(bar["w"]) + scale * bump_w)
        return good_terms(grid, st, composite_std)

    t1, t2 = build(1.0), build(2.0)
    for key in t1:
        if t1[key] > 0:
            # G1 sees the perturbation through the pressure difference, which
            # is quadratic only to leading order; every other term is exactly
            # degree two
            tol = 1e-4 if key == "G1" else 1e-9
            assert t2[key] / t1[key] == pytest.approx(4.0, rel=tol)


def test_g1_invariant_under_velocity_offset(small_setup, composite_std):
    # G1 depends on u only through u - ubar
    grid, state = small_setup
    state.u = state.u + gaussian(grid.x, 1e-3, 0.0, 4.0)
    bar = background(composite_std, grid, state)
    pattern, model = composite_std.pattern, composite_std.model
    g_before = diagnostics.good_terms(grid, state, bar, pattern, model)["G1"]
    state.u = state.u + 5.0
    shifted = {**bar, "u": bar["u"] + 5.0}
    g_after = diagnostics.good_terms(grid, state, shifted, pattern, model)["G1"]
    assert g_after == pytest.approx(g_before, rel=1e-12)


def test_gr_vanishes_without_fan(model14, right_state):
    from nskwave.rarefaction import RarefactionWave
    pat = nw.pattern_from_intermediate(0.9, right_state, model14)
    prof = nw.solve_profile(pat, model14)
    comp = nw.CompositeWave(RarefactionWave(pat, model14), prof, pat, model14)
    grid = nw.Grid(-40.0, 40.0, 256)
    state = nw.initial_data(grid, comp, nw.Perturbation(kind="gaussian", amplitude=1e-3,
                                                        center=0.0, width=4.0))
    assert good_terms(grid, state, comp)["GR"] == 0.0


def test_perturbation_norms(small_setup, composite_std):
    grid, state = small_setup
    amp, width = 1e-3, 5.0
    center = float(grid.x[256])  # put the peak on a node so the sup is exact
    state.v = state.v + gaussian(grid.x, amp, center, width)
    state.w = discrete_gradient_w(state.v, grid.dx, composite_std.model)
    norms = diagnostics.perturbation_norms(grid, state, background(composite_std, grid, state))
    # closed-form Gaussian L2 norm: amp * pi^(1/4) * sqrt(width)
    assert norms["L2_phi"] == pytest.approx(amp * np.pi ** 0.25 * np.sqrt(width), rel=1e-2)
    assert norms["Linf_psi"] == 0.0
    state.u = state.u + gaussian(grid.x, amp, center, width)
    n2 = diagnostics.perturbation_norms(grid, state, background(composite_std, grid, state))
    assert n2["Linf_psi"] == pytest.approx(amp, rel=1e-12)
    state.u = state.u - 0.5 * gaussian(grid.x, amp, center, width)
    n3 = diagnostics.perturbation_norms(grid, state, background(composite_std, grid, state))
    assert n3["Linf_psi"] == pytest.approx(0.5 * amp, rel=1e-12)
    assert n3["H1_psi"] >= n3["L2_psi"]


def test_hardy_legendre_exact_cases():
    y = np.linspace(0.0, 1.0, 2048)
    lhs, rhs = diagnostics.hardy_legendre_gap(np.full_like(y, 3.7))
    assert lhs < 1e-25 and rhs == 0.0
    lhs, rhs = diagnostics.hardy_legendre_gap(y)
    assert lhs == pytest.approx(1.0 / 12.0, abs=1e-6)
    assert rhs == pytest.approx(1.0 / 12.0, abs=1e-6)
    lhs, rhs = diagnostics.hardy_legendre_gap(y ** 2)
    assert lhs == pytest.approx(4.0 / 45.0, abs=1e-6)
    assert rhs == pytest.approx(0.1, abs=1e-6)


def test_hardy_legendre_random_polynomials():
    rng = np.random.default_rng(17)
    y = np.linspace(0.0, 1.0, 2048)
    for _ in range(100):
        coef = rng.uniform(-1.0, 1.0, 6)
        lhs, rhs = diagnostics.hardy_legendre_gap(np.polyval(coef, y))
        assert lhs <= rhs + 1e-6


def test_hardy_legendre_validation():
    with pytest.raises(nw.DomainError):
        diagnostics.hardy_legendre_gap(np.array([1.0, 2.0]))
    with pytest.raises(nw.DomainError):
        diagnostics.hardy_legendre_gap(np.array([1.0, np.nan, 2.0]))


def test_record_row_matches_column_order(small_setup, composite_std):
    grid, state = small_setup
    rec = diagnostics.collect_record(grid, state, background(composite_std, grid, state),
                                     composite_std.pattern, composite_std.model, xdot=0.0)
    row = rec.as_row()
    assert len(row) == len(diagnostics.CSV_COLUMNS)
    assert row[0] == rec.t and row[-1] == rec.mass_defect
    d = rec.as_dict()
    assert list(d) == diagnostics.CSV_COLUMNS
