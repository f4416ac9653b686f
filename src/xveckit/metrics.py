"""Detection metrics over verification scores: equal error rate,
minimum normalized detection cost, and actual cost at the Bayes
threshold.

One convention, used everywhere: a trial is accepted when its score is
>= the threshold. So P_miss(t) is the fraction of target scores below
t, P_fa(t) is the fraction of nontarget scores at or above t, and a
nontarget tied with the threshold counts as a false accept.

detection_metrics sweeps every distinct score plus +inf, which visits
every achievable (P_miss, P_fa) operating point exactly once. The EER
is linearly interpolated between the two operating points bracketing
the P_miss = P_fa crossing. The tests check it against an independent
brute-force oracle to 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import binio
from .errors import ConfigurationError, DataError

__all__ = ["DcfParams", "MetricsReport", "detection_metrics"]


@dataclass(frozen=True)
class DcfParams:
    """Detection-cost parameters: target prior and error costs."""

    p_target: float = 0.01
    c_miss: float = 1.0
    c_fa: float = 1.0

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        problems = []
        if not 0.0 < self.p_target < 1.0:
            problems.append(f"p_target must lie in (0, 1), got {self.p_target}")
        if self.c_miss <= 0:
            problems.append(f"c_miss must be positive, got {self.c_miss}")
        if self.c_fa <= 0:
            problems.append(f"c_fa must be positive, got {self.c_fa}")
        problems += binio.non_finite_fields(self)
        if problems:
            raise ConfigurationError("; ".join(problems))

    def bayes_threshold(self) -> float:
        """Optimal accept threshold when scores are calibrated
        log-likelihood ratios."""
        return math.log(self.c_fa * (1.0 - self.p_target) / (self.c_miss * self.p_target))

    def normalizer(self) -> float:
        return min(self.c_miss * self.p_target, self.c_fa * (1.0 - self.p_target))


@dataclass
class MetricsReport:
    eer: float
    min_dcf: float
    act_dcf: float
    threshold_at_eer: float
    num_target: int
    num_nontarget: int

    def format_table(self) -> str:
        header = f"{'EER%':>7}  {'minDCF':>7}  {'actDCF':>7}"
        row = f"{100.0 * self.eer:7.2f}  {self.min_dcf:7.4f}  {self.act_dcf:7.4f}"
        return header + "\n" + row

    def to_csv(self) -> str:
        return "metric,value\n" + "".join(f"{f.name},{getattr(self, f.name)!r}\n"
                                           for f in fields(self))


def _dcf(p_miss, p_fa, params: DcfParams):
    raw = params.c_miss * params.p_target * p_miss \
        + params.c_fa * (1.0 - params.p_target) * p_fa
    return raw / params.normalizer()


def _interpolate_eer(p_miss: np.ndarray, p_fa: np.ndarray,
                     thresholds: np.ndarray) -> tuple[float, float]:
    # diff is non-decreasing, starts at -1 and ends at +1, so a bracket
    # always exists and idx >= 1.
    diff = p_miss - p_fa
    idx = int(np.argmax(diff >= 0.0))
    if diff[idx] == 0.0:
        eer = float(p_miss[idx])
        thr = float(thresholds[idx])
    else:
        lam = -diff[idx - 1] / (diff[idx] - diff[idx - 1])
        eer = float(p_miss[idx - 1] + lam * (p_miss[idx] - p_miss[idx - 1]))
        thr = float(thresholds[idx - 1] + lam * (thresholds[idx] - thresholds[idx - 1]))
    if math.isinf(thr):
        # crossing leans on the +inf endpoint; report the last real one
        thr = float(thresholds[idx - 1])
    return eer, thr


def detection_metrics(target_scores, nontarget_scores,
                      params: DcfParams = DcfParams()) -> MetricsReport:
    """Compute EER / minDCF / actDCF from target and nontarget scores."""
    t = np.sort(np.asarray(target_scores, dtype=np.float64).ravel())
    nt = np.sort(np.asarray(nontarget_scores, dtype=np.float64).ravel())
    if t.size == 0:
        raise DataError("no target trials; metrics need at least one of each class")
    if nt.size == 0:
        raise DataError("no nontarget trials; metrics need at least one of each class")
    if not (np.isfinite(t).all() and np.isfinite(nt).all()):
        raise DataError("scores must be finite")
    thresholds = np.concatenate([np.unique(np.concatenate([t, nt])), [np.inf]])
    p_miss = np.searchsorted(t, thresholds, side="left") / t.size
    p_fa = (nt.size - np.searchsorted(nt, thresholds, side="left")) / nt.size

    eer, thr_eer = _interpolate_eer(p_miss, p_fa, thresholds)
    min_dcf = float(np.min(_dcf(p_miss, p_fa, params)))
    beta = params.bayes_threshold()
    pm_b = np.searchsorted(t, beta, side="left") / t.size
    pf_b = (nt.size - np.searchsorted(nt, beta, side="left")) / nt.size
    act_dcf = float(_dcf(pm_b, pf_b, params))
    return MetricsReport(eer=eer, min_dcf=min_dcf, act_dcf=act_dcf,
                         threshold_at_eer=thr_eer,
                         num_target=int(t.size), num_nontarget=int(nt.size))
