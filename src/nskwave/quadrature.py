"""Adaptive Simpson quadrature over a list of breakpoints.

The integrands in this package are smooth with exponentially localized
features, so plain Simpson with Richardson-style refinement is both fast
and deterministic.  The implementation is iterative and batched: every
refinement level evaluates the integrand on one numpy array.
"""
from __future__ import annotations

import logging

import numpy as np

log = logging.getLogger(__name__)

MAX_LEVELS = 60
MAX_INTERVALS = 200_000


def adaptive_simpson(f, breakpoints, abs_tol=1e-10, rel_tol=1e-9):
    """Integrate ``f`` over [breakpoints[0], breakpoints[-1]].

    ``f`` must accept a numpy array and return an array of the same
    shape.  ``breakpoints`` seed the initial subdivision; features known
    in advance (wave centers, tail edges) should appear here so the
    adaptivity starts near them.  A subinterval is accepted once the
    classic |S2 - S1|/15 estimate drops below its length-weighted share
    of ``abs_tol`` plus ``rel_tol`` times the larger of the local and the
    running global integral scale; the global part keeps sign changes of
    the integrand from triggering runaway subdivision.
    """
    pts = np.unique(np.asarray(breakpoints, dtype=float))
    if pts.size < 2:
        raise ValueError("need at least two distinct breakpoints")
    total_len = pts[-1] - pts[0]

    a = pts[:-1].copy()
    b = pts[1:].copy()
    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    result = 0.0
    for _ in range(MAX_LEVELS):
        ml = 0.5 * (a + m)
        mr = 0.5 * (m + b)
        fml, fmr = f(ml), f(mr)
        h = b - a
        s_left = h / 12.0 * (fa + 4.0 * fml + fm)
        s_right = h / 12.0 * (fm + 4.0 * fmr + fb)
        s2 = s_left + s_right
        err = np.abs(s2 - whole) / 15.0
        global_scale = abs(result) + float(np.sum(np.abs(s2)))
        share = h / total_len
        tol = np.maximum(abs_tol * share,
                         rel_tol * np.maximum(np.abs(s2), global_scale * share))
        done = err <= tol
        # Richardson extrapolation on accepted pieces
        result += np.sum(s2[done] + (s2[done] - whole[done]) / 15.0)
        if np.all(done):
            return float(result)
        keep = ~done
        n_open = int(np.count_nonzero(keep))
        if n_open > MAX_INTERVALS:
            # safety valve: accept the refined estimate everywhere
            log.warning("adaptive_simpson: %d intervals still open (cap %d); "
                        "returning the unconverged estimate", n_open, MAX_INTERVALS)
            result += float(np.sum(s2[keep]))
            return float(result)
        # split every unaccepted interval into its two halves
        a = np.concatenate([a[keep], m[keep]])
        b = np.concatenate([m[keep], b[keep]])
        fa = np.concatenate([fa[keep], fm[keep]])
        fb = np.concatenate([fm[keep], fb[keep]])
        m = np.concatenate([ml[keep], mr[keep]])
        fm = np.concatenate([fml[keep], fmr[keep]])
        whole = np.concatenate([s_left[keep], s_right[keep]])
    result += float(np.sum(whole))
    return float(result)

