"""Adaptive Gauss-Kronrod quadrature over lists of breakpoints.

The integrands in this package are analytic, with exponentially localized
features (the tanh fan, the shock's closed-form tails, the C^1 Hermite
body between them), so a rule of high order accepts most panels within a
few halvings.  Each panel is integrated by the 21-point Kronrod rule and by
the 10-point Gauss rule on its odd nodes (QUADPACK's qk21, Piessens et al.,
1983); the Kronrod sum is the panel's integral and |K - G| its error.  An
integrand may return several rows (shape (k, n)); the rows then share one
refinement, so quantities built from the same expensive stacks are
integrated with one evaluation of those stacks per point.  The domains (the
same integrand at several times, say) refine in lockstep: each level
evaluates the integrand once, on one numpy array holding the points of
every domain still open.

The refinement is one flat table of the open panels of every domain,
grouped by domain, each domain's in the order its refinement alone makes
them (left to right).  The rule, the tolerance arithmetic and the split run
once per level on the whole table, element by element; only the sums over a
domain's panels and its stop and valve tests are per domain.  Those sums
are taken over slices with the memory layout a domain alone gives them
(numpy adds the rows of a boolean selection with k > 1 rows in another
order than a single row), so each domain's result is the one it gets
alone, to the bit.  On the nine times of ``nskwave interactions`` on
``configs/standard.cfg`` cut to t_end = 80 the lockstep takes 6 levels and
6,321 points, and the quadrature's own time, without the integrand, is
about 2 ms on 2 vCPUs.
"""
from __future__ import annotations

import logging

import numpy as np

log = logging.getLogger(__name__)

MAX_LEVELS = 60
#: the integrand points one domain may take in all: a domain whose next
#: level would pass it stops at the valve
MAX_POINTS = 1_000_000

# qk21 on [-1, 1]: the Kronrod nodes in [0, 1) from the outside in and
# their weights, and the Gauss weights of the odd ones (_X[1], _X[3], ...,
# _X[9]); the centre is a Kronrod node only
_X = np.array([0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
               0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
               0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
               0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
               0.294392862701460198131126603103866, 0.148874338981631210884826001129720, 0.0])
_WK = np.array([0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
                0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
                0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
                0.123491976262065851077208292746776, 0.134709217311473325928054001771707,
                0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
                0.149445554002916905664936468389821])
_WG = np.array([0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
                0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
                0.295524224714752870173892994651338])
#: the 21 nodes on [-1, 1] in ascending order; node j and node 20 - j mirror
NODES = np.concatenate([-_X[:-1], _X[::-1]])
POINTS = NODES.size


def _rules(F, half):
    """The Kronrod and Gauss sums of the panels of half-width ``half`` (n,)
    whose integrand at ``NODES`` is ``F`` (k, 21, n), element by element."""
    kronrod = F[:, 10] * _WK[10]
    gauss = np.zeros_like(kronrod)
    for j in range(10):
        pair = F[:, j] + F[:, 20 - j]
        kronrod += pair * _WK[j]
        if j % 2:
            pair *= _WG[j // 2]
            gauss += pair
    kronrod *= half
    gauss *= half
    return kronrod, gauss


def _block_sums(x, ends):
    """Row sums of the column blocks [ends[i], ends[i + 1]) of ``x`` (k, n),
    as the rows of a (len(ends) - 1, k) array."""
    out = np.empty((len(ends) - 1, x.shape[0]))
    for row, lo, hi in zip(out, ends[:-1], ends[1:]):
        np.add.reduce(x[:, lo:hi], axis=1, out=row)
    return out


def gauss_kronrod(f, domains, abs_tol=1e-10, rel_tol=1e-9):
    """Integrate ``f`` over each of ``domains``, in lockstep.

    ``domains`` is a list of breakpoint sequences, one per domain; a domain
    is [breakpoints[0], breakpoints[-1]], and its breakpoints are the ends
    of its first panels, so features known in advance (wave centers, tail
    edges) should appear there and the adaptivity starts near them.  ``f``
    is called as ``f(x, domain)`` on the points of every open domain at
    once, with ``domain`` the integer array giving the index of each
    point's domain; the points come in no particular order, so ``f`` must
    give each point the value it would get on its own.  It returns an
    array of shape (k, n), or (n,) for k = 1, and the result is a list
    with one (k,) array of the integrals of the rows per domain.  ``abs_tol``
    is a scalar for every row or a (k,) array, one per row.  Each
    domain keeps its own panels, acceptance, stop and valve, so its result
    is the one it gets alone.

    Acceptance.  Each level evaluates the rule on every open panel, 21
    points each.  A panel's error is |K - G|, the difference of its Kronrod
    and Gauss sums: about the Gauss rule's error where the integrand is
    smooth, far above the Kronrod sum's, and about the Kronrod sum's own
    error where the panel holds a jump or rounding noise of the integrand.
    The global scale of a row is the magnitude of its accepted integral
    plus the sum of |K| over the open panels.  A panel is accepted, with
    its Kronrod sum, once for every row its error is within its
    length-weighted share of ``abs_tol`` or within ``rel_tol`` times the
    larger of its own |K| and its length-weighted share of the global
    scale; the others are halved for the next level.

    Global stop.  All open panels are accepted together once, for every
    row, the errors of the accepted panels plus those of the open ones are
    within max(``rel_tol`` x global scale, ``abs_tol``).  The open error is
    the sum of the open panels' |K - G|: it covers a panel that holds a
    jump or rounding noise, whose error is about that raw difference, and
    it is never below the root-sum-square by which rounding noise adds up
    over many panels.  A jump never passes the local test, whose share
    shrinks with the panel, but its error shrinks with the panel too, so
    the global test stops it.

    Once a domain's next level would take its integrand points past
    ``MAX_POINTS``, or after ``MAX_LEVELS`` levels, a warning naming the
    domain and its span is logged and the domain's unconverged estimate
    is returned.
    """
    pts = [np.unique(np.asarray(bp, dtype=float)) for bp in domains]
    if any(p.size < 2 for p in pts):
        raise ValueError("need at least two distinct breakpoints")
    if not pts:
        return []
    span = np.array([p[-1] - p[0] for p in pts])
    # the table: the ends a, b of the open panels of every open domain; the
    # panels of the i-th, ``live[i]``, are the ``sizes[i]`` from ``ends[i]`` on
    live = np.arange(len(pts))
    sizes = np.array([p.size - 1 for p in pts])
    a = np.concatenate([p[:-1] for p in pts])
    b = np.concatenate([p[1:] for p in pts])
    spent = np.zeros(len(pts), dtype=np.int64)
    result = accepted_err = None
    for level in range(MAX_LEVELS):
        n = a.size
        ends = np.concatenate([[0], np.cumsum(sizes)])
        owner = np.repeat(live, sizes)
        mid = a + b
        mid *= 0.5
        half = b - a
        half *= 0.5
        x = np.multiply.outer(NODES, half)
        x += mid
        fx = np.atleast_2d(f(x.ravel(), np.tile(owner, POINTS)))
        del x
        k = fx.shape[0]
        if result is None:
            result, accepted_err = np.zeros((len(pts), k)), np.zeros((len(pts), k))
        kronrod, gauss = _rules(fx.reshape(k, POINTS, n), half)
        del fx
        err = np.subtract(kronrod, gauss, out=gauss)
        np.abs(err, out=err)
        abs_k = np.abs(kronrod)
        global_scale = _block_sums(abs_k, ends)
        global_scale += np.abs(result[live])
        share = (b - a) / span[owner]
        tol = np.repeat(global_scale.T, sizes, axis=1)
        tol *= share
        np.maximum(tol, abs_k, out=tol)
        tol *= rel_tol
        np.maximum(tol, np.multiply.outer(abs_tol, share), out=tol)
        done = (err <= tol).all(axis=0)
        del tol, share, abs_k
        # per domain: its accepted panels are columns [done_ends[i],
        # done_ends[i + 1]) of the selections by ``done``, its open ones
        # those of the selections by ``keep``
        done_ends = np.concatenate([[0], np.cumsum(done)])[ends]
        keep_ends = ends - done_ends
        n_open = np.diff(keep_ends)
        keep = ~done
        result[live] += _block_sums(kronrod[:, done], done_ends)
        accepted_err[live] += _block_sums(err[:, done], done_ends)
        open_err = _block_sums(err[:, keep], keep_ends)
        stop = (n_open == 0) | (accepted_err[live] + open_err
                                <= np.maximum(rel_tol * global_scale, abs_tol)).all(axis=1)
        spent[live] += POINTS * sizes
        valve = ~stop & ((spent[live] + 2 * POINTS * n_open > MAX_POINTS)
                         | (level == MAX_LEVELS - 1))
        # a domain that stops, at the valve or not, takes its open panels'
        # Kronrod sums
        ended = stop | valve
        if ended.any():
            result[live[ended]] += _block_sums(kronrod[:, keep], keep_ends)[ended]
        for i in np.flatnonzero(valve):
            d = live[i]
            log.warning("gauss_kronrod: domain %d on [%.6g, %.6g]: %d panels still open "
                        "after %d levels and %d points (budget %d); returning the "
                        "unconverged estimate",
                        d, pts[d][0], pts[d][-1], n_open[i], level + 1, spent[d], MAX_POINTS)
        go_on = ~ended
        if not go_on.any():
            break
        # halve every open panel of a domain that goes on, in place: each
        # domain's panels stay in order from left to right
        kept = np.flatnonzero(keep & np.repeat(go_on, sizes))
        a = np.stack([a[kept], mid[kept]], axis=1).ravel()
        b = np.stack([mid[kept], b[kept]], axis=1).ravel()
        live, sizes = live[go_on], 2 * n_open[go_on]
        # hold only the open panels while the integrand runs: it runs with
        # the state of every domain in the lockstep alive at once
        del kronrod, err, done, keep, kept, mid, half
    return list(result)
