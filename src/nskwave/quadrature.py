"""Adaptive Simpson quadrature over lists of breakpoints.

The integrands in this package are smooth with exponentially localized
features, so plain Simpson with Richardson-style refinement is both fast
and deterministic.  The implementation is iterative and batched: every
refinement level evaluates the integrand once, on one numpy array.  An
integrand may return several rows (shape (k, n)); the rows then share one
refinement, so quantities built from the same expensive stacks are
integrated with one evaluation of those stacks per point.  The domains
(the same integrand at several times, say) refine in lockstep: each level
evaluates the integrand once on the points of every domain still open.
"""
from __future__ import annotations

import logging

import numpy as np

log = logging.getLogger(__name__)

MAX_LEVELS = 60
MAX_INTERVALS = 200_000


def _levels(pts, abs_tol, rel_tol, index):
    """The refinement of domain ``index`` with sorted distinct breakpoints ``pts``.

    A generator: it yields the points whose integrand values it needs next,
    is sent those values as an array of shape (k, n), and returns the k
    integrals.  The rules are those of ``adaptive_simpson``.
    """
    total_len = pts[-1] - pts[0]
    a = pts[:-1]
    m = 0.5 * (pts[:-1] + pts[1:])
    n = a.size
    first = yield np.concatenate([pts, m])
    fa, fb, fm = first[:, :n], first[:, 1:n + 1], first[:, n + 1:]
    b = pts[1:]
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    result = np.zeros(first.shape[0])
    accepted_err = np.zeros(first.shape[0])
    for level in range(MAX_LEVELS):
        ml = 0.5 * (a + m)
        mr = 0.5 * (m + b)
        fmid = yield np.concatenate([ml, mr])
        fml, fmr = fmid[:, :a.size], fmid[:, a.size:]
        h = b - a
        s_left = h / 12.0 * (fa + 4.0 * fml + fm)
        s_right = h / 12.0 * (fm + 4.0 * fmr + fb)
        s2 = s_left + s_right
        diff = np.abs(s2 - whole)
        err = diff / 15.0
        richardson = s2 + (s2 - whole) / 15.0
        global_scale = np.abs(result) + np.sum(np.abs(s2), axis=1)
        share = h / total_len
        tol = np.maximum(abs_tol * share,
                         rel_tol * np.maximum(np.abs(s2), global_scale[:, None] * share))
        done = np.all(err <= tol, axis=0)
        result += np.sum(richardson[:, done], axis=1)
        accepted_err += np.sum(err[:, done], axis=1)
        keep = ~done
        open_err = np.maximum(np.sum(err[:, keep], axis=1),
                              np.sqrt(np.sum(diff[:, keep] ** 2, axis=1)))
        if not keep.any() or np.all(accepted_err + open_err
                                    <= np.maximum(rel_tol * global_scale, abs_tol)):
            result += np.sum(richardson[:, keep], axis=1)
            return result
        n_open = int(np.count_nonzero(keep))
        if n_open > MAX_INTERVALS or level == MAX_LEVELS - 1:
            # safety valve: accept the refined estimate everywhere
            log.warning("adaptive_simpson: domain %d on [%.6g, %.6g]: %d intervals still "
                        "open (cap %d) after %d levels; returning the unconverged estimate",
                        index, pts[0], pts[-1], n_open, MAX_INTERVALS, level + 1)
            result += np.sum(s2[:, keep], axis=1)
            return result
        # split every unaccepted interval into its two halves
        a = np.concatenate([a[keep], m[keep]])
        b = np.concatenate([m[keep], b[keep]])
        fa = np.concatenate([fa[:, keep], fm[:, keep]], axis=1)
        fb = np.concatenate([fm[:, keep], fb[:, keep]], axis=1)
        m = np.concatenate([ml[keep], mr[keep]])
        fm = np.concatenate([fml[:, keep], fmr[:, keep]], axis=1)
        whole = np.concatenate([s_left[:, keep], s_right[:, keep]], axis=1)
        # hold only the open intervals while the integrand runs: it runs
        # with the state of every domain in the lockstep alive at once
        del fmid, fml, fmr, s_left, s_right, s2, diff, err, richardson, tol


def adaptive_simpson(f, domains, abs_tol=1e-10, rel_tol=1e-9):
    """Integrate ``f`` over each of ``domains``, in lockstep.

    ``domains`` is a list of breakpoint sequences, one per domain; a domain
    is [breakpoints[0], breakpoints[-1]], and its breakpoints seed the
    initial subdivision, so features known in advance (wave centers, tail
    edges) should appear there and the adaptivity starts near them.  ``f``
    is called as ``f(x, domain)`` on the points of every open domain at
    once, with ``domain`` the integer array giving the index of each
    point's domain.  It returns an array of shape (k, n), or (n,) for
    k = 1, and the result is a list with one (k,) array of the integrals
    of the rows per domain.  Each domain keeps its own intervals,
    acceptance, stop and valve, so its result is the one it gets alone.

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
    runs = []
    for index, bp in enumerate(domains):
        pts = np.unique(np.asarray(bp, dtype=float))
        if pts.size < 2:
            raise ValueError("need at least two distinct breakpoints")
        runs.append(_levels(pts, abs_tol, rel_tol, index))
    need = {i: next(run) for i, run in enumerate(runs)}
    results = [None] * len(runs)
    while need:
        live = list(need)
        sizes = [need[i].size for i in live]
        x = np.concatenate([need.pop(i) for i in live])
        values = np.atleast_2d(f(x, np.repeat(live, sizes)))
        for i, chunk in zip(live, np.split(values, np.cumsum(sizes[:-1]), axis=1)):
            try:
                need[i] = runs[i].send(chunk)
            except StopIteration as stop:
                results[i] = stop.value
        # the next level's call runs without this one's values
        del values, chunk
    return results
