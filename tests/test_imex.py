"""The IMEX stepper: the ARK4(3)6L[2]SA tableaux, the split of the
right-hand side into its explicit and implicit parts, the implicit solve,
and the stability of the frozen-coefficient scheme at the step bound."""
import itertools
from fractions import Fraction as Fr
from pathlib import Path

import numpy as np
import pytest

import nskwave as nw
from nskwave import solver, thermo

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# Kennedy & Carpenter, Appl. Numer. Math. 44 (2003), ARK4(3)6L[2]SA
EXPLICIT = [
    [],
    [Fr(1, 2)],
    [Fr(13861, 62500), Fr(6889, 62500)],
    [Fr(-116923316275, 2393684061468), Fr(-2731218467317, 15368042101831),
     Fr(9408046702089, 11113171139209)],
    [Fr(-451086348788, 2902428689909), Fr(-2682348792572, 7519795681897),
     Fr(12662868775082, 11960479115383), Fr(3355817975965, 11060851509271)],
    [Fr(647845179188, 3216320057751), Fr(73281519250, 8382639484533),
     Fr(552539513391, 3454668386233), Fr(3354512671639, 8306763924573), Fr(4040, 17871)],
]
IMPLICIT = [
    [],
    [Fr(1, 4)],
    [Fr(8611, 62500), Fr(-1743, 31250)],
    [Fr(5012029, 34652500), Fr(-654441, 2922500), Fr(174375, 388108)],
    [Fr(15267082809, 155376265600), Fr(-71443401, 120774400), Fr(730878875, 902184768),
     Fr(2285395, 8070912)],
    [Fr(82889, 524892), Fr(0), Fr(15625, 83664), Fr(69875, 102672), Fr(-2260, 8211)],
]
C = [Fr(0), Fr(1, 2), Fr(83, 250), Fr(31, 50), Fr(17, 20), Fr(1)]
B = [Fr(82889, 524892), Fr(0), Fr(15625, 83664), Fr(69875, 102672), Fr(-2260, 8211), Fr(1, 4)]
GAMMA = Fr(1, 4)


def square(rows, diagonal):
    return [row + [diagonal if i else Fr(0)] + [Fr(0)] * (5 - i)
            for i, row in enumerate(rows)]


def rooted_trees(order):
    """The rooted trees with ``order`` nodes, each a sorted tuple of its subtrees."""
    if order == 1:
        return [()]
    trees = set()
    for split in range(1, order):
        for first in rooted_trees(split):
            for rest in rooted_trees(order - split):
                trees.add(tuple(sorted(rest + (first,))))
    return sorted(trees)


def size(tree):
    return 1 + sum(size(t) for t in tree)


def density(tree):
    out = size(tree)
    for t in tree:
        out *= density(t)
    return out


def stage_weights(tree, colours):
    """Each stage's elementary weight of ``tree``, every edge taking the next
    tableau from ``colours`` (depth first)."""
    weights = [Fr(1)] * 6
    for child in tree:
        A = next(colours)
        inner = stage_weights(child, colours)
        weights = [w * sum(a * x for a, x in zip(row, inner)) for w, row in zip(weights, A)]
    return weights


def test_tableaux_are_fourth_order_with_their_couplings():
    """In exact arithmetic: every tree of order at most 4, with every choice
    of explicit or implicit tableau on each edge, has b . Phi = 1/gamma(t)
    (the coupling conditions are the mixed choices); the rows sum to c; the
    ESDIRK diagonal is 1/4 and its last row is b."""
    AE, AI = square(EXPLICIT, Fr(0)), square(IMPLICIT, GAMMA)
    assert AI[-1] == B and all(AI[i][i] == GAMMA for i in range(1, 6)) and AI[0][0] == 0
    assert [sum(row) for row in AI] == C
    # the explicit entries are rationals near irrationals: their rows and
    # conditions hold to about 1e-26
    assert max(abs(sum(row) - c) for row, c in zip(AE, C)) < 1e-24
    worst, count = Fr(0), 0
    for order in range(1, 5):
        for tree in rooted_trees(order):
            for colours in itertools.product((AE, AI), repeat=size(tree) - 1):
                phi = stage_weights(tree, iter(colours))
                worst = max(worst, abs(sum(b * p for b, p in zip(B, phi)) - Fr(1, density(tree))))
                count += 1
    assert count == 1 + 2 + 8 + 32 and worst < 1e-24


def test_solver_holds_the_tableaux_as_floats():
    """The module's float literals are the correctly rounded rationals."""
    assert solver.ARK_C.tolist() == [float(c) for c in C]
    assert solver.ARK_B.tolist() == [float(b) for b in B]
    assert solver.ARK_GAMMA == float(GAMMA)
    for rows, table, diagonal in ((EXPLICIT, solver.ARK_EXPLICIT, Fr(0)),
                                  (IMPLICIT, solver.ARK_IMPLICIT, GAMMA)):
        assert table.tolist() == [[float(a) for a in row] for row in square(rows, diagonal)]


def implicit_block(v, dx, model):
    """The dense (u, w) block of ``_rhs_arrays`` at volume v, probed column
    by column: ``_rhs_arrays`` is affine in (u, w) at fixed v."""
    n = v.size
    base = solver._rhs_arrays(v, np.zeros(n), np.zeros(n), dx, model)[1:].ravel()
    L = np.empty((2 * n, 2 * n))
    for j in range(2 * n):
        e = np.zeros(2 * n)
        e[j] = 1.0
        L[:, j] = solver._rhs_arrays(v, e[:n], e[n:], dx, model)[1:].ravel() - base
    return L


@pytest.mark.parametrize("n", [17, 101, 258])
def test_cyclic_reduction_is_the_dense_solve(n):
    """The implicit stage's solve, by elimination of w and block cyclic
    reduction, equals a dense solve of (I - g L) z = y with L probed from
    the right-hand side itself, also where n is not a multiple of 4."""
    model = nw.GasModel(1.6, 0.5, 1.0)
    rng = np.random.default_rng(n)
    grid = nw.Grid(-20.0, 20.0, n)
    v = 1.0 + 0.2 * np.sin(0.3 * grid.x) + 0.05 * rng.random(n)
    # the stiff regime of the stepper: g nu / dx^2 of about 10
    g = 10.0 * grid.dx ** 2
    L = implicit_block(v, grid.dx, model)
    y = rng.standard_normal((3, n))
    expected = np.linalg.solve(np.eye(2 * n) - g * L, y[1:].ravel()).reshape(2, n)
    z, Lz = y.copy(), np.empty((2, n))
    solver._ImplicitStage(v, grid.dx, model, g).solve(z, out=Lz)
    assert np.max(np.abs(z[1:] - expected)) <= 1e-12 * np.max(np.abs(expected))
    assert np.max(np.abs(Lz - (L @ expected.ravel()).reshape(2, n))) <= 1e-12 * np.max(np.abs(Lz))
    # v_t = D0 u is implicit too: v = y_v + g D0 u
    v_t = solver._rhs_arrays(v, z[1], z[2], grid.dx, model)[0]
    assert np.max(np.abs(z[0] - y[0] - g * v_t)) <= 1e-14 * np.max(np.abs(y[0]))
    # the pinned nodes keep the explicit sum's values exactly
    assert np.array_equal(z[:, [0, -1]], y[:, [0, -1]])


def test_split_is_exact_at_a_perturbed_state():
    """f_I = (D0 u, V u + K w, M u), with the banded (u, w) block, plus
    f_E = (0, -D0 p(v), 0) is ``_rhs_arrays`` to rounding; ``at_start``
    recovers f_I's (u, w) rows from f."""
    cfg = nw.parse_config(CONFIGS / "smoke.cfg")
    composite = nw.build_composite(cfg.build_pattern(), cfg.gas)
    grid, model = cfg.grid, cfg.gas
    state = nw.initial_data(grid, composite, cfg.perturbation)
    x = grid.x
    v = state.v + 0.02 * np.exp(-((x - 5.0) / 7.0) ** 2)
    u = state.u + 0.03 * np.sin(0.2 * x) * np.exp(-(x / 30.0) ** 2)
    w = state.w + 0.01 * np.cos(0.3 * x) * np.exp(-((x + 4.0) / 9.0) ** 2)
    f = solver._rhs_arrays(v, u, w, grid.dx, model)
    V, K, M = solver._implicit_operators(v, grid.dx, model)
    h, p = 0.5 / grid.dx, thermo.pressure(v, model)
    f_I = np.array([np.zeros(grid.n), solver._band_apply(V, u) + solver._band_apply(K, w),
                    solver._band_apply(M, u)])
    f_I[0, 1:-1] = h * (u[2:] - u[:-2])
    f_E = np.zeros((3, grid.n))
    f_E[1, 1:-1] = -h * (p[2:] - p[:-2])
    scale = np.max(np.abs(f), axis=1, keepdims=True)
    assert np.all(np.max(np.abs(f_E + f_I - f), axis=1, keepdims=True) <= 1e-13 * scale)
    assert np.max(np.abs(f_I[1:])) > 1e-3 * np.max(scale)
    at_start = np.empty((2, grid.n))
    solver._ImplicitStage(v, grid.dx, model, 0.1).at_start(f, out=at_start)
    assert np.all(np.max(np.abs(at_start - f_I[1:]), axis=1) <= 1e-13 * scale[1:, 0])


def symbols(v, dx, model, theta):
    """The frozen-coefficient symbols J_E, J_I (3 x 3 per theta) at the
    constant state v: central D0 -> i sin(theta)/dx, the face-averaged
    viscous term -> -4 sin^2(theta/2)/dx^2, D0 D0 -> -sin^2(theta)/dx^2."""
    s, r = np.sin(theta) / dx, 4.0 * np.sin(0.5 * theta) ** 2 / dx ** 2
    visc = v ** (-model.alpha - 1.0)
    cap = v ** (-0.5 * (model.beta + 5.0))
    JE = np.zeros((theta.size, 3, 3), complex)
    JI = np.zeros_like(JE)
    JI[:, 0, 1] = 1j * s
    JE[:, 1, 0] = -thermo.dpressure(v, model) * 1j * s
    JI[:, 1, 1] = -visc * r
    JI[:, 1, 2] = -cap * s ** 2
    JI[:, 2, 1] = cap * s ** 2
    return JE, JI


def test_implicit_symbol_is_the_banded_block(model14):
    """The (u, w) block of the symbol J_I of ``symbols`` is what the banded
    operators do to a Fourier mode at an interior node of a constant state."""
    grid = nw.Grid(-20.0, 20.0, 201)
    v = np.full(grid.n, 0.93)
    V, K, M = solver._implicit_operators(v, grid.dx, model14)
    theta = np.array([0.3, 1.1, 2.5])
    _, JI = symbols(0.93, grid.dx, model14, theta)
    mid = grid.n // 2
    for k, th in enumerate(theta):
        mode = np.exp(1j * th * (np.arange(grid.n) - mid))
        for op, row, col in ((V, 1, 1), (K, 1, 2), (M, 2, 1)):
            got = solver._band_apply(op, mode.real) + 1j * solver._band_apply(op, mode.imag)
            assert got[mid] == pytest.approx(JI[k, row, col], rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("name", ["smoke", "standard"])
def test_frozen_scheme_is_stable_at_the_step_bound(name):
    """At cfl = 0.5 the ARK amplification matrix of the frozen-coefficient
    discrete symbol has spectral radius at most 1 + 1e-12 for every theta in
    (0, pi], at the left, intermediate and right states, with the step the
    bound gives on the config's grid at that state; so it has at cfl = 2."""
    cfg = nw.parse_config(CONFIGS / f"{name}.cfg")
    pattern, model, dx = cfg.build_pattern(), cfg.gas, cfg.grid.dx
    theta = np.linspace(0.0, np.pi, 4001)[1:]
    AE, AI, b = solver.ARK_EXPLICIT, solver.ARK_IMPLICIT, solver.ARK_B
    eye = np.eye(3)
    for v, cfl in itertools.product((pattern.left.v, pattern.mid.v, pattern.right.v),
                                    (0.5, 2.0)):
        state = nw.SimState(v=np.full(16, v), u=np.zeros(16), w=np.zeros(16))
        dt = nw.parabolic_dt(state, nw.Grid(0.0, 15.0 * dx, 16), model, cfl)
        JE, JI = symbols(v, dx, model, theta)
        # the acoustic waves' largest |lambda dt| is 2 cfl
        acoustic = JE.copy()
        acoustic[:, 0, 1] = JI[:, 0, 1]
        assert np.max(np.abs(np.linalg.eigvals(dt * acoustic))) == pytest.approx(2.0 * cfl,
                                                                                 rel=1e-6)
        # the six stages Y_i = y + dt sum_j (aE_ij J_E + aI_ij J_I) Y_j, then
        # y + dt sum_j b_j (J_E + J_I) Y_j, for y each column of the identity
        stages = (np.eye(18) - dt * (np.einsum("ij,tab->tiajb", AE, JE)
                                     + np.einsum("ij,tab->tiajb", AI, JI)).reshape(-1, 18, 18))
        Y = np.linalg.solve(stages, np.tile(eye, (6, 1))).reshape(-1, 6, 3, 3)
        R = eye + dt * np.einsum("j,tab,tjbc->tac", b, JE + JI, Y)
        radius = np.max(np.abs(np.linalg.eigvals(R)))
        assert radius <= 1.0 + 1e-12, (name, v, cfl, radius)


def test_explicit_tableau_imaginary_axis_limit():
    """The explicit tableau alone is stable on the imaginary axis up to |z|
    of about 4.0, four times the acoustic |lambda dt| at cfl = 0.5."""
    AE, b = solver.ARK_EXPLICIT, solver.ARK_B

    def growth(y):
        z = 1j * y
        return abs(1.0 + z * b @ np.linalg.solve(np.eye(6) - z * AE, np.ones(6)))

    assert all(growth(y) <= 1.0 + 1e-12 for y in np.linspace(0.01, 3.99, 400))
    assert growth(4.01) > 1.0


def test_shift_quarter_rate_is_read_at_the_quarter():
    """The shift clause reads X at t_end / 4 from the cubic Hermite
    interpolant of the records' (X, Xdot), which a cubic X meets exactly,
    whatever the record spacing; at a record it is the record's X."""
    t = np.array([0.0, 13.7, 41.0, 54.6, 140.0, 200.0])
    coef = np.array([2e-7, -3e-5, 1e-3, 0.002])
    X, Xdot = np.polyval(coef, t), np.polyval(np.polyder(coef), t)
    got = solver._decay_ratios(t, X, Xdot, (1.0, 0.5), (1.0, 1.0), 200.0)
    assert got["x_rate_quarter"] == pytest.approx(abs(np.polyval(coef, 50.0)) / 50.0,
                                                  rel=1e-13)
    assert got["x_rate_final"] == abs(X[-1]) / 200.0
    assert solver._hermite(t, X, Xdot, 41.0) == X[2]
