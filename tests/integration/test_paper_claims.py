"""The paper's qualitative claims, asserted on the experiment tables.

Each test runs a full registered experiment at ``REPRO_SCALE=0.15``
with the persistent store off, so the scores come from a cold run of
the current code, and asserts orderings between methods (Section 7),
never exact values:

* M2H HTML (Table 1): LRSyn ≥ NDSyn ≥ ForgivingXPaths in both settings,
  and LRSyn loses at most 0.02 F1 from contemporary to longitudinal;
* Finance and M2H-Images (Tables 3 and 4): LRSyn ≥ AFR;
* the synthetic forge's HTML providers: LRSyn ≥ NDSyn in both settings,
  and under format drift LRSyn abstains rather than answers wrongly
  (longitudinal precision ≥ 0.95).
"""

import pytest
from _pytest.monkeypatch import MonkeyPatch

from repro.datasets.base import CONTEMPORARY, LONGITUDINAL
from repro.harness.forge import run_forge_html_experiment
from repro.harness.images import (
    AfrMethod,
    LrsynImageMethod,
    run_finance_experiment,
    run_m2h_images_experiment,
)
from repro.harness.runner import (
    ForgivingXPathsMethod,
    LrsynHtmlMethod,
    NdsynMethod,
    average,
    run_m2h_experiment,
)


@pytest.fixture(scope="module")
def cold_env():
    mp = MonkeyPatch()
    mp.setenv("REPRO_SCALE", "0.15")
    mp.setenv("REPRO_STORE", "0")
    mp.setenv("REPRO_JOBS", "1")
    mp.delenv("REPRO_SHARD", raising=False)
    mp.delenv("REPRO_FORGE_PROVIDERS", raising=False)
    mp.delenv("REPRO_FORGE_DOCS", raising=False)
    yield
    mp.undo()


def mean_f1(results, method, setting=None):
    return mean_metric(results, "f1", method, setting)


def mean_metric(results, metric, method, setting=None):
    scores = [
        getattr(r, metric)
        for r in results
        if r.method == method and (setting is None or r.setting == setting)
    ]
    assert scores, f"no {method} results"
    return average(scores)


@pytest.fixture(scope="module")
def m2h_results(cold_env):
    return run_m2h_experiment(
        [ForgivingXPathsMethod(), NdsynMethod(), LrsynHtmlMethod()]
    )


@pytest.mark.parametrize("setting", [CONTEMPORARY, LONGITUDINAL])
def test_m2h_lrsyn_at_or_above_ndsyn_at_or_above_forgiving_xpaths(
    m2h_results, setting
):
    lrsyn = mean_f1(m2h_results, "LRSyn", setting)
    ndsyn = mean_f1(m2h_results, "NDSyn", setting)
    forgiving = mean_f1(m2h_results, "ForgivingXPaths", setting)
    assert lrsyn >= ndsyn >= forgiving, (lrsyn, ndsyn, forgiving)


def test_m2h_lrsyn_longitudinal_drop_is_small(m2h_results):
    contemporary = mean_f1(m2h_results, "LRSyn", CONTEMPORARY)
    longitudinal = mean_f1(m2h_results, "LRSyn", LONGITUDINAL)
    assert contemporary - longitudinal <= 0.02, (contemporary, longitudinal)


@pytest.mark.parametrize(
    "experiment", [run_finance_experiment, run_m2h_images_experiment],
    ids=["finance", "m2h_images"],
)
def test_image_lrsyn_at_or_above_afr(cold_env, experiment):
    results = experiment([AfrMethod(), LrsynImageMethod()])
    lrsyn = mean_f1(results, "LRSyn")
    afr = mean_f1(results, "AFR")
    assert lrsyn >= afr, (lrsyn, afr)


@pytest.fixture(scope="module")
def forge_html_results(cold_env):
    return run_forge_html_experiment([NdsynMethod(), LrsynHtmlMethod()])


@pytest.mark.parametrize("setting", [CONTEMPORARY, LONGITUDINAL])
def test_forge_html_lrsyn_at_or_above_ndsyn(forge_html_results, setting):
    lrsyn = mean_f1(forge_html_results, "LRSyn", setting)
    ndsyn = mean_f1(forge_html_results, "NDSyn", setting)
    assert lrsyn >= ndsyn, (lrsyn, ndsyn)


def test_forge_html_lrsyn_longitudinal_precision(forge_html_results):
    precision = mean_metric(
        forge_html_results, "precision", "LRSyn", LONGITUDINAL
    )
    assert precision >= 0.95, precision
