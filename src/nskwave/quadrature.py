"""Adaptive Simpson quadrature over lists of breakpoints.

The integrands in this package are smooth with exponentially localized
features, so plain Simpson with Richardson-style refinement is both fast
and deterministic.  An integrand may return several rows (shape (k, n));
the rows then share one refinement, so quantities built from the same
expensive stacks are integrated with one evaluation of those stacks per
point.  The domains (the same integrand at several times, say) refine in
lockstep: each level evaluates the integrand once, on one numpy array
holding the points of every domain still open.

The refinement is one flat table of the open intervals of every domain,
grouped by domain, each domain's in the order its refinement alone makes
them.  The Simpson, Richardson and tolerance arithmetic and the split run
once per level on the whole table; only the sums over a domain's
intervals and its stop and valve tests are per domain.  Those sums are
taken over slices with the memory layout a domain alone gives them (numpy
adds the rows of a boolean selection with k > 1 rows in another order
than a single row), so each domain's result is the one it gets alone, to
the bit.  On the nine times of ``nskwave interactions`` on
``configs/standard.cfg`` cut to t_end = 80 (13 levels), the quadrature's
own time, without the integrand, is about 5 ms on 2 vCPUs, against 12 to
16 ms with one refinement per domain.
"""
from __future__ import annotations

import logging

import numpy as np

log = logging.getLogger(__name__)

MAX_LEVELS = 60
MAX_INTERVALS = 200_000


def _block_sums(x, ends):
    """Row sums of the column blocks [ends[i], ends[i + 1]) of ``x`` (k, n),
    as the rows of a (len(ends) - 1, k) array."""
    out = np.empty((len(ends) - 1, x.shape[0]))
    for row, lo, hi in zip(out, ends[:-1], ends[1:]):
        np.add.reduce(x[:, lo:hi], axis=1, out=row)
    return out


def adaptive_simpson(f, domains, abs_tol=1e-10, rel_tol=1e-9):
    """Integrate ``f`` over each of ``domains``, in lockstep.

    ``domains`` is a list of breakpoint sequences, one per domain; a domain
    is [breakpoints[0], breakpoints[-1]], and its breakpoints seed the
    initial subdivision, so features known in advance (wave centers, tail
    edges) should appear there and the adaptivity starts near them.  ``f``
    is called as ``f(x, domain)`` on the points of every open domain at
    once, with ``domain`` the integer array giving the index of each
    point's domain; the points come in no particular order, so ``f`` must
    give each point the value it would get on its own.  It returns an
    array of shape (k, n), or (n,) for k = 1, and the result is a list
    with one (k,) array of the integrals of the rows per domain.  Each
    domain keeps its own intervals, acceptance, stop and valve, so its
    result is the one it gets alone.

    Acceptance.  Each level halves every open interval.  The error of an
    interval's refined Simpson sum S2 is estimated as |S2 - S1|/15, which
    holds where the integrand is smooth on the interval.  The global scale
    of a row is the magnitude of its accepted integral plus the sum of |S2|
    over the open intervals.  An interval is accepted, with its Richardson
    value S2 + (S2 - S1)/15, once for every row its estimate is within its
    length-weighted share of ``abs_tol`` or within ``rel_tol`` times the
    larger of its own |S2| and its length-weighted share of the global
    scale.

    Global stop.  All open intervals are accepted together once, for every
    row, the estimates of the accepted intervals plus the error of the open
    ones are within max(``rel_tol`` x global scale, ``abs_tol``).  An open
    interval may hold a jump, whose error is about |S2 - S1| itself, or
    rounding noise of the integrand, whose errors add up over many
    intervals like a root-sum-square; so the open error is the larger of
    the summed estimates and the root-sum-square of |S2 - S1|.  The local
    test alone would halve such intervals until the valve below.

    If more than ``MAX_INTERVALS`` intervals of a domain are still open, or
    after ``MAX_LEVELS`` levels, a warning naming the domain is logged and
    the domain's unconverged estimate is returned.
    """
    pts = [np.unique(np.asarray(bp, dtype=float)) for bp in domains]
    if any(p.size < 2 for p in pts):
        raise ValueError("need at least two distinct breakpoints")
    if not pts:
        return []
    span = np.array([p[-1] - p[0] for p in pts])
    # the table: per interval its ends a, b, midpoint m, the integrand
    # there (k, n) and its Simpson sum ``whole``; the intervals of the i-th
    # open domain, ``live[i]``, are the ``sizes[i]`` from ``ends[i]`` on
    live = np.arange(len(pts))
    sizes = np.array([p.size - 1 for p in pts])
    ends = np.concatenate([[0], np.cumsum(sizes)])
    owner = np.repeat(live, sizes)
    knots = np.concatenate(pts)
    left = np.arange(owner.size) + owner        # each interval's left knot
    a, b = knots[left], knots[left + 1]
    m = 0.5 * (a + b)
    first = np.atleast_2d(f(np.concatenate([knots, m]),
                            np.concatenate([np.repeat(live, sizes + 1), owner])))
    fa, fb = first.take(left, axis=1), first.take(left + 1, axis=1)
    fm = first[:, knots.size:]
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    del first, knots, left, owner

    k = fm.shape[0]
    result = np.zeros((len(pts), k))
    accepted_err = np.zeros((len(pts), k))
    for level in range(MAX_LEVELS):
        n = a.size
        x = np.empty(2 * n)
        ml, mr = x[:n], x[n:]
        np.add(a, m, out=ml)
        ml *= 0.5
        np.add(m, b, out=mr)
        mr *= 0.5
        fmid = np.atleast_2d(f(x, np.tile(np.repeat(live, sizes), 2)))
        fml, fmr = fmid[:, :n], fmid[:, n:]
        h = b - a
        h12 = h / 12.0
        s_left = np.multiply(fml, 4.0)
        s_left += fa
        s_left += fm
        s_left *= h12
        s_right = np.multiply(fmr, 4.0)
        s_right += fm
        s_right += fb
        s_right *= h12
        s2 = s_left + s_right
        gap = s2 - whole
        del whole
        diff = np.abs(gap)
        err = diff / 15.0
        abs_s2 = np.abs(s2)
        global_scale = _block_sums(abs_s2, ends)
        global_scale += np.abs(result[live])
        share = h / np.repeat(span[live], sizes)
        tol = np.repeat(global_scale.T, sizes, axis=1)
        tol *= share
        tol = np.maximum(abs_s2, tol, out=abs_s2)
        tol *= rel_tol
        np.maximum(abs_tol * share, tol, out=tol)
        done = (err <= tol).all(axis=0)
        del abs_s2, tol, share, h12
        richardson = np.divide(gap, 15.0, out=gap)
        richardson += s2
        # per domain: its accepted intervals are columns [done_ends[i],
        # done_ends[i + 1]) of the selections by ``done``, its open ones
        # those of the selections by ``keep``
        done_ends = np.concatenate([[0], np.cumsum(done)])[ends]
        keep_ends = ends - done_ends
        n_open = np.diff(keep_ends)
        keep = ~done
        result[live] += _block_sums(richardson[:, done], done_ends)
        accepted_err[live] += _block_sums(err[:, done], done_ends)
        open_err = np.maximum(_block_sums(err[:, keep], keep_ends),
                              np.sqrt(_block_sums(diff[:, keep] ** 2, keep_ends)))
        stop = (n_open == 0) | (accepted_err[live] + open_err
                                <= np.maximum(rel_tol * global_scale, abs_tol)).all(axis=1)
        valve = ~stop & ((n_open > MAX_INTERVALS) | (level == MAX_LEVELS - 1))
        # a domain that stops takes its open intervals' Richardson values,
        # one at the valve their refined sums
        if stop.any():
            result[live[stop]] += _block_sums(richardson[:, keep], keep_ends)[stop]
        if valve.any():
            result[live[valve]] += _block_sums(s2[:, keep], keep_ends)[valve]
        for i in np.flatnonzero(valve):
            d = live[i]
            log.warning("adaptive_simpson: domain %d on [%.6g, %.6g]: %d intervals still "
                        "open (cap %d) after %d levels; returning the unconverged estimate",
                        d, pts[d][0], pts[d][-1], n_open[i], MAX_INTERVALS, level + 1)
        go_on = ~(stop | valve)
        if not go_on.any():
            break
        # split every unaccepted interval of a domain that goes on into its
        # two halves: the domain's left halves, then its right halves
        kept = np.flatnonzero(keep & np.repeat(go_on, sizes))
        half = n_open[go_on]
        live, sizes = live[go_on], 2 * half
        ends = np.concatenate([[0], np.cumsum(sizes)])
        source = np.empty(2 * kept.size, np.intp)
        at = np.arange(kept.size) + np.repeat(ends[:-1] // 2, half)
        source[at] = kept
        source[at + np.repeat(half, half)] = kept + n
        a, b = np.concatenate([a, m]).take(source), np.concatenate([m, b]).take(source)
        m = x.take(source)
        del s2, diff, err, richardson
        whole = np.concatenate([s_left, s_right], axis=1).take(source, axis=1)
        del s_left, s_right
        fa, fb = (np.concatenate([fa, fm], axis=1).take(source, axis=1),
                  np.concatenate([fm, fb], axis=1).take(source, axis=1))
        fm = fmid.take(source, axis=1)
        # hold only the open intervals while the integrand runs: it runs
        # with the state of every domain in the lockstep alive at once
        del x, ml, mr, fmid, fml, fmr, h, done, keep, kept, source, at
    return list(result)
