"""Analysis utilities: the paper's quantitative arguments as code.

* :mod:`repro.analysis.sampling_error` — Eq. (2): the worst-case mean
  error of a sampled Voc estimate as a function of hold period, over a
  recorded light log.
* :mod:`repro.analysis.efficiency` — mapping Voc-estimate error onto
  tracking-efficiency loss (the "<1 %" argument) and general harvest
  accounting helpers.
* :mod:`repro.analysis.power_budget` — itemised current budgets for the
  metrology chain (the 7.6 uA / 8 uA figures) and its competitors.
* :mod:`repro.analysis.reporting` — fixed-width tables matching the
  shape of the paper's Table I and comparison text.
"""

from repro.analysis.sampling_error import (
    worst_case_mean_error,
    error_vs_period,
    mpp_voltage_error,
)
from repro.analysis.efficiency import (
    efficiency_loss_from_voc_error,
    tracking_efficiency_of_ratio,
    crossover_lux,
)
from repro.analysis.power_budget import PowerBudget, BudgetLine, proposed_platform_budget
from repro.analysis.reporting import format_table
from repro.analysis.montecarlo import (
    ToleranceSpec,
    MonteCarloResult,
    run_sample_hold_montecarlo,
    render_montecarlo,
)
from repro.analysis.neutrality import NeutralityReport, assess_neutrality, size_supercapacitor

__all__ = [
    "worst_case_mean_error",
    "error_vs_period",
    "mpp_voltage_error",
    "efficiency_loss_from_voc_error",
    "tracking_efficiency_of_ratio",
    "crossover_lux",
    "PowerBudget",
    "BudgetLine",
    "proposed_platform_budget",
    "format_table",
    "ToleranceSpec",
    "MonteCarloResult",
    "run_sample_hold_montecarlo",
    "render_montecarlo",
    "NeutralityReport",
    "assess_neutrality",
    "size_supercapacitor",
]
