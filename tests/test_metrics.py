"""Detection metrics: the fast path must match the quadratic oracle."""

import math

import numpy as np
import pytest

from xveckit.errors import ConfigurationError, DataError
from xveckit.metrics import DcfParams, MetricsReport, detection_metrics

from metrics_oracle import metrics_oracle


def random_scores(rng):
    nt_count = int(rng.integers(1, 60))
    t_count = int(rng.integers(1, 60))
    style = rng.integers(0, 3)
    if style == 0:  # continuous, overlapping
        t = rng.normal(1.0, 1.0, t_count)
        nt = rng.normal(-1.0, 1.0, nt_count)
    elif style == 1:  # heavy ties
        t = rng.integers(-3, 4, t_count).astype(float)
        nt = rng.integers(-4, 3, nt_count).astype(float)
    else:  # disjoint or nearly so
        t = rng.normal(5.0, 0.5, t_count)
        nt = rng.normal(-5.0, 0.5, nt_count)
    return t, nt


@pytest.mark.parametrize("seed", range(4))
def test_fast_path_equals_oracle(seed):
    rng = np.random.default_rng(seed)
    params = DcfParams()
    for _ in range(300):
        t, nt = random_scores(rng)
        fast = detection_metrics(t, nt, params)
        slow = metrics_oracle(t, nt, params)
        assert math.isclose(fast.eer, slow.eer, rel_tol=0, abs_tol=1e-12)
        assert math.isclose(fast.min_dcf, slow.min_dcf, rel_tol=0, abs_tol=1e-12)
        assert math.isclose(fast.act_dcf, slow.act_dcf, rel_tol=0, abs_tol=1e-12)


def test_fast_path_equals_oracle_on_ties_at_threshold():
    # scores exactly at a decision threshold hit the >= convention
    t = np.array([0.0, 0.0, 1.0, 2.0])
    nt = np.array([0.0, 0.0, -1.0, 2.0])
    for params in (DcfParams(), DcfParams(p_target=0.5)):
        fast = detection_metrics(t, nt, params)
        slow = metrics_oracle(t, nt, params)
        assert fast.eer == pytest.approx(slow.eer, abs=1e-15)
        assert fast.min_dcf == pytest.approx(slow.min_dcf, abs=1e-15)


def test_all_scores_identical():
    fast = detection_metrics([1.0, 1.0], [1.0, 1.0, 1.0])
    slow = metrics_oracle([1.0, 1.0], [1.0, 1.0, 1.0])
    assert fast.eer == pytest.approx(slow.eer, abs=1e-15)
    assert fast.eer == pytest.approx(0.5, abs=1e-12)


def test_perfect_separation():
    report = detection_metrics([1.0, 1.1, 1.2], [-1.0, 0.0, 0.5])
    assert report.eer == 0.0
    assert report.min_dcf == 0.0
    # well separated but far below the Bayes threshold of ~log(99):
    # every target is rejected there, so the actual cost saturates
    assert report.act_dcf == pytest.approx(1.0)


def test_calibrated_perfect_separation():
    thr = DcfParams().bayes_threshold()
    report = detection_metrics([thr + 1, thr + 2], [thr - 2, thr - 1])
    assert report.act_dcf == 0.0


def test_identical_distributions_sit_at_half():
    rng = np.random.default_rng(0)
    pool = rng.normal(size=4000)
    report = detection_metrics(pool[:2000], pool[2000:])
    assert report.eer == pytest.approx(0.5, abs=0.02)


def test_min_dcf_never_exceeds_act_dcf():
    rng = np.random.default_rng(1)
    for _ in range(200):
        t, nt = random_scores(rng)
        report = detection_metrics(t, nt)
        assert report.min_dcf <= report.act_dcf + 1e-15


def test_eer_and_min_dcf_are_monotone_invariant():
    rng = np.random.default_rng(2)
    t, nt = rng.normal(1, 1, 40), rng.normal(0, 1, 60)
    base = detection_metrics(t, nt)
    for f in (lambda x: 3.0 * x + 7.0, lambda x: x ** 3, np.tanh):
        moved = detection_metrics(f(t), f(nt))
        assert moved.eer == pytest.approx(base.eer, abs=1e-12)
        assert moved.min_dcf == pytest.approx(base.min_dcf, abs=1e-12)


def test_eer_is_symmetric_under_negation():
    # swapping the classes and flipping signs mirrors the DET curve
    rng = np.random.default_rng(3)
    t, nt = rng.normal(1, 1, 35), rng.normal(0, 1.5, 50)
    a = detection_metrics(t, nt)
    b = detection_metrics(-nt, -t)
    assert a.eer == pytest.approx(b.eer, abs=1e-12)


def test_threshold_at_eer_balances_rates():
    rng = np.random.default_rng(4)
    t, nt = rng.normal(1, 1, 500), rng.normal(0, 1, 500)
    report = detection_metrics(t, nt)
    p_miss = np.mean(t < report.threshold_at_eer)
    p_fa = np.mean(nt >= report.threshold_at_eer)
    assert abs(p_miss - p_fa) < 0.01
    assert abs(p_miss - report.eer) < 0.01


def test_counts_reported():
    report = detection_metrics([1.0, 2.0], [0.0, 0.1, 0.2])
    assert report.num_target == 2 and report.num_nontarget == 3


def test_input_validation():
    with pytest.raises(DataError):
        detection_metrics([], [1.0])
    with pytest.raises(DataError):
        detection_metrics([1.0], [])
    with pytest.raises(DataError):
        detection_metrics([np.nan], [0.0])
    with pytest.raises(DataError):
        detection_metrics([np.inf], [0.0])


def test_dcf_params_validation():
    with pytest.raises(ConfigurationError):
        DcfParams(p_target=0.0)
    with pytest.raises(ConfigurationError):
        DcfParams(p_target=1.0)
    with pytest.raises(ConfigurationError):
        DcfParams(c_miss=0.0)
    with pytest.raises(ConfigurationError):
        DcfParams(c_fa=-1.0)


def test_bayes_threshold_formula():
    assert DcfParams(p_target=0.5).bayes_threshold() == pytest.approx(0.0, abs=1e-15)
    assert DcfParams(p_target=0.01).bayes_threshold() == pytest.approx(math.log(99.0))
    # doubling the miss cost lowers the operating threshold
    assert DcfParams(p_target=0.01, c_miss=2.0).bayes_threshold() \
        < DcfParams(p_target=0.01).bayes_threshold()


def test_report_formats():
    report = detection_metrics([1.0, 2.0, 3.0], [-1.0, 0.0, 1.5])
    table = report.format_table()
    lines = table.splitlines()
    assert len(lines) == 2
    assert lines[0].split() == ["EER%", "minDCF", "actDCF"]
    assert len(lines[1].split()) == 3
    csv_lines = report.to_csv().splitlines()
    assert csv_lines[0] == "metric,value"
    parsed = dict(line.split(",") for line in csv_lines[1:])
    assert float(parsed["eer"]) == report.eer  # repr round-trips exactly
    assert int(parsed["num_target"]) == 3
