"""Brute-force reference for xveckit.metrics.detection_metrics.

An independent path to the same numbers: thresholds at the midpoints
between sorted distinct scores plus both infinities, with explicit
counting per threshold. The tests require it to agree with the fast path
to 1e-12; it exists to check the fast path, not to be fast, and it uses
only the public API of xveckit.metrics.
"""

import math

import numpy as np

from xveckit.metrics import DcfParams, MetricsReport


def _cost(p_miss, p_fa, params: DcfParams) -> float:
    raw = params.c_miss * params.p_target * p_miss + params.c_fa * (1.0 - params.p_target) * p_fa
    return float(raw / params.normalizer())


def metrics_oracle(target_scores, nontarget_scores,
                   params: DcfParams = DcfParams()) -> MetricsReport:
    """Quadratic-cost reference implementation of detection_metrics, for
    finite scores with at least one of each class."""
    t = np.sort(np.asarray(target_scores, dtype=np.float64).ravel())
    nt = np.sort(np.asarray(nontarget_scores, dtype=np.float64).ravel())
    merged = np.unique(np.concatenate([t, nt]))
    thresholds = np.concatenate([[-np.inf], 0.5 * (merged[:-1] + merged[1:]), [np.inf]])

    p_miss = np.empty(thresholds.size)
    p_fa = np.empty(thresholds.size)
    for i, thr in enumerate(thresholds):
        p_miss[i] = np.count_nonzero(t < thr) / t.size
        p_fa[i] = np.count_nonzero(nt >= thr) / nt.size

    diff = p_miss - p_fa
    idx = int(np.argmax(diff >= 0.0))
    if diff[idx] == 0.0:
        eer = float(p_miss[idx])
        lo = hi = thresholds[idx]
        gap = 0.0
    else:
        gap = (p_fa[idx - 1] - p_miss[idx - 1]) / ((p_fa[idx - 1] - p_miss[idx - 1])
                                                   + (p_miss[idx] - p_fa[idx]))
        pm_x = p_miss[idx - 1] + gap * (p_miss[idx] - p_miss[idx - 1])
        pf_x = p_fa[idx - 1] + gap * (p_fa[idx] - p_fa[idx - 1])
        eer = float(0.5 * (pm_x + pf_x))
        lo, hi = thresholds[idx - 1], thresholds[idx]
    # the bracket may touch an infinite sentinel; report a real number
    if math.isinf(lo) and math.isinf(hi):
        thr_eer = float(merged[0])
    elif math.isinf(lo):
        thr_eer = float(hi)
    elif math.isinf(hi):
        thr_eer = float(lo)
    else:
        thr_eer = float(lo + gap * (hi - lo))

    min_dcf = min(_cost(pm, pf, params) for pm, pf in zip(p_miss, p_fa))
    beta = params.bayes_threshold()
    act_dcf = _cost(np.count_nonzero(t < beta) / t.size, np.count_nonzero(nt >= beta) / nt.size,
                    params)
    return MetricsReport(eer=eer, min_dcf=min_dcf, act_dcf=act_dcf,
                         threshold_at_eer=thr_eer,
                         num_target=int(t.size), num_nontarget=int(nt.size))
