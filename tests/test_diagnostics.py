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


def record(grid, state, composite, bar=None):
    """The record of ``state`` as a dict, against ``bar`` or the composite's
    background at the state's time."""
    bar = background(composite, grid, state) if bar is None else bar
    return diagnostics.collect_record(grid, state, bar, composite.pattern, composite.model,
                                      xdot=0.0).as_dict()


#: the sign-definite terms of the ledger
GOOD_TERMS = ("G1", "G3", "GSu", "GSv", "GR", "Gw", "Du1", "Du2", "Dw1", "Dw2")


def gaussian(x, amp, center, width):
    return amp * np.exp(-((x - center) ** 2) / (2.0 * width ** 2))


def test_entropy_density_basic(model14):
    assert diagnostics.relative_entropy_density(1.0, 1.0, 0.0, 0.0, model14) == 0.0
    val = diagnostics.relative_entropy_density(1.0, 1.0, 0.7 - 0.5, 0.0, model14)
    assert val == pytest.approx(0.02)
    rng = np.random.default_rng(2)
    v, vb = rng.uniform(0.5, 2.0, 100), rng.uniform(0.5, 2.0, 100)
    u, ub = rng.normal(size=100), rng.normal(size=100)
    w, wb = rng.normal(size=100), rng.normal(size=100)
    eta = diagnostics.relative_entropy_density(v, vb, u - ub, w - wb, model14)
    assert np.all(eta >= 0.5 * (u - ub) ** 2)


def test_entropy_locally_equivalent_to_l2(model14):
    rng = np.random.default_rng(4)
    vb = rng.uniform(0.85, 1.05, 2000)
    phi = rng.uniform(-0.3, 0.3, 2000)
    psi = rng.uniform(-0.3, 0.3, 2000)
    om = rng.uniform(-0.3, 0.3, 2000)
    eta = diagnostics.relative_entropy_density(vb + np.abs(phi) + 0.01, vb, psi, om, model14)
    dist = (np.abs(phi) + 0.01) ** 2 + psi ** 2 + om ** 2
    c = np.min(eta / dist)
    assert c > 0.0


def test_weighted_entropy_zero_perturbation(small_setup, composite_std):
    grid, state = small_setup
    state.w = composite_std.eval_bar(0.0, grid.x, 0.0)["w"]  # exact constraint field
    assert record(grid, state, composite_std)["eta_weighted"] < 1e-12


def test_weighted_entropy_dominates_unweighted_l2(small_setup, composite_std):
    grid, state = small_setup
    state.u = state.u + gaussian(grid.x, 1e-2, 0.0, 3.0)
    rec = record(grid, state, composite_std)
    assert rec["eta_weighted"] >= 0.5 * (rec["L2_psi"] ** 2 + rec["L2_omega"] ** 2) - 1e-12


def test_good_terms_zero_perturbation(small_setup, composite_std):
    grid, state = small_setup
    state.w = composite_std.eval_bar(0.0, grid.x, 0.0)["w"]
    rec = record(grid, state, composite_std)
    assert all(abs(rec[key]) < 1e-20 for key in GOOD_TERMS)


def test_good_terms_quadratic_scaling(small_setup, composite_std):
    grid, state = small_setup
    bar = composite_std.eval_bar(0.0, grid.x, 0.0)
    bump_v = gaussian(grid.x, 1e-5, 1.0, 4.0)
    bump_u = gaussian(grid.x, 1e-5, -2.0, 5.0)
    bump_w = gaussian(grid.x, 1e-5, 0.5, 3.0)

    def build(scale):
        st = nw.SimState(v=bar["v"] + scale * bump_v, u=bar["u"] + scale * bump_u,
                         w=np.asarray(bar["w"]) + scale * bump_w)
        return record(grid, st, composite_std)

    t1, t2 = build(1.0), build(2.0)
    for key in GOOD_TERMS:
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
    g_before = record(grid, state, composite_std, bar)["G1"]
    state.u = state.u + 5.0
    shifted = {**bar, "u": bar["u"] + 5.0}
    g_after = record(grid, state, composite_std, shifted)["G1"]
    assert g_after == pytest.approx(g_before, rel=1e-12)


def test_gr_vanishes_without_fan(model14, right_state):
    from nskwave.rarefaction import RarefactionWave
    pat = nw.pattern_from_intermediate(0.9, right_state, model14)
    prof = nw.solve_profile(pat, model14)
    comp = nw.CompositeWave(RarefactionWave(pat, model14), prof, pat, model14)
    grid = nw.Grid(-40.0, 40.0, 256)
    state = nw.initial_data(grid, comp, nw.Perturbation(kind="gaussian", amplitude=1e-3,
                                                        center=0.0, width=4.0))
    assert record(grid, state, comp)["GR"] == 0.0


def test_perturbation_norms(small_setup, composite_std):
    grid, state = small_setup
    amp, width = 1e-3, 5.0
    center = float(grid.x[256])  # put the peak on a node so the sup is exact
    state.v = state.v + gaussian(grid.x, amp, center, width)
    state.w = discrete_gradient_w(state.v, grid.dx, composite_std.model)
    norms = record(grid, state, composite_std)
    # closed-form Gaussian L2 norm: amp * pi^(1/4) * sqrt(width)
    assert norms["L2_phi"] == pytest.approx(amp * np.pi ** 0.25 * np.sqrt(width), rel=1e-2)
    assert norms["Linf_psi"] == 0.0
    state.u = state.u + gaussian(grid.x, amp, center, width)
    n2 = record(grid, state, composite_std)
    assert n2["Linf_psi"] == pytest.approx(amp, rel=1e-12)
    state.u = state.u - 0.5 * gaussian(grid.x, amp, center, width)
    n3 = record(grid, state, composite_std)
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


def test_record_columns_recomputed_by_hand(composite_std):
    """Every column of one record, against plain numpy written out here: a
    perturbed state with phi, psi and omega all nonzero and a nonzero shift."""
    model, pattern = composite_std.model, composite_std.pattern
    grid = nw.Grid(-60.0, 60.0, 700)
    x, dx, t, X = grid.x, grid.dx, 2.0, 0.3
    bar = composite_std.eval_bar(t, x, X)
    v = bar["v"] + gaussian(x, 4e-3, 1.5, 5.0)
    u = bar["u"] + gaussian(x, -3e-3, -4.0, 6.0)
    w = np.asarray(bar["w"]) + gaussian(x, 2e-3, 2.5, 4.0)
    state = nw.SimState(v=v, u=u, w=w, t=t, X=X)
    rec = diagnostics.collect_record(grid, state, bar, pattern, model,
                                     xdot=-0.07, mass_defect=3e-15).as_dict()

    g = model.gamma
    vb, ub, wb = bar["v"], bar["u"], np.asarray(bar["w"])
    phi, psi, om = v - vb, u - ub, w - wb

    def integral(f):
        return dx * (np.sum(f) - 0.5 * (f[0] + f[-1]))

    def d1(f):
        return np.gradient(f, dx, edge_order=2)

    def d2(f):
        inner = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / dx ** 2
        return np.concatenate([inner[:1], inner, inner[-1:]])

    q = v ** (1.0 - g) / (g - 1.0) - vb ** (1.0 - g) / (g - 1.0) + vb ** (-g) * (v - vb)
    eta = 0.5 * psi ** 2 + q + 0.5 * om ** 2
    abs_ax = np.abs(bar["a_x"])
    abs_usx = np.abs(bar["shock"]["ux"])
    want = {
        "t": t, "X": X, "Xdot": -0.07,
        "L2_phi": np.sqrt(integral(phi ** 2)),
        "L2_psi": np.sqrt(integral(psi ** 2)),
        "L2_omega": np.sqrt(integral(om ** 2)),
        "H1_psi": np.sqrt(integral(psi ** 2) + integral(d1(psi) ** 2)),
        "H1_omega": np.sqrt(integral(om ** 2) + integral(d1(om) ** 2)),
        "W1inf_phi": max(np.max(np.abs(phi)), np.max(np.abs(d1(phi)))),
        "Linf_psi": np.max(np.abs(psi)),
        "eta_weighted": integral(bar["a"] * eta),
        "G1": integral(abs_ax * (v ** -g - vb ** -g - psi / (2.0 * pattern.C1)) ** 2),
        "G3": integral(abs_ax * om ** 2),
        "GSu": integral(abs_usx * psi ** 2),
        "GSv": integral(abs_usx * phi ** 2),
        "GR": integral(bar["fan"]["ux"] * phi ** 2),
        "Gw": integral(om ** 2),
        "Du1": integral(d1(psi) ** 2),
        "Du2": integral(d2(psi) ** 2),
        "Dw1": integral(d1(om) ** 2),
        "Dw2": integral(d2(om) ** 2),
        "constraint_defect": np.max(np.abs(w + v ** (-0.5 * (model.beta + 5.0)) * d1(v))),
        "mass_defect": 3e-15,
    }
    assert set(want) == set(rec)
    for key, val in want.items():
        assert val != 0.0, key
        assert rec[key] == pytest.approx(val, rel=1e-12, abs=0.0), key
