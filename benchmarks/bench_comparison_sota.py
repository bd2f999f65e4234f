"""E8 — comparison against the state of the art (paper Sec. I / IV-B).

Regenerates (a) the quiescent-consumption table the paper's introduction
builds its case on, and (b) 24-hour net-harvest league tables for all
nine techniques under the three lighting scenarios.

Expected shape (asserted):
* indoors, every microcontroller/pilot/photodiode-class tracker is
  net-NEGATIVE ("the tracking circuitry itself consumed all of the
  power generated indoors") while the proposed 8 uA S&H nets positive;
* the proposed system's overhead is the smallest of any *tracking*
  technique, and smaller than the fixed-voltage reference IC's;
* outdoors the proposed system is within a few percent of the oracle.
"""

from repro.env.profiles import HOURS
from repro.experiments import comparison


def test_quiescent_overhead_table(benchmark, save_result):
    text = benchmark(comparison.render_quiescent)
    save_result("comparison_quiescent", text)

    draws = {name: watts for name, _, watts in comparison.QUIESCENT_CLAIMS}
    proposed = draws["proposed-S&H-FOCV"]
    assert proposed < draws["fixed-voltage [8]"]
    assert proposed < draws["pilot-cell [5]"] / 10.0
    assert proposed < draws["photodiode [6]"] / 50.0
    assert proposed < draws["periodic-uC-FOCV [4]"] / 70.0


def test_24h_comparison_all_scenarios(benchmark, save_result):
    results = benchmark.pedantic(
        lambda: comparison.run_comparison(duration=24.0 * HOURS, dt=10.0),
        rounds=1,
        iterations=1,
    )

    save_result("comparison_24h", comparison.render(results))

    net = comparison.net_energy_by_scenario(results)

    # Indoors: the heavyweight trackers eat themselves ...
    desk = net["office-desk"]
    for heavy in ("hill-climbing", "periodic-uC-FOCV", "photodiode-ref", "pilot-cell"):
        assert desk[heavy] < 0.0, f"{heavy} should be net-negative indoors"
    # ... while the proposed S&H nets positive, and the trimmed variant
    # leads every realisable technique.
    assert desk["proposed-S&H-FOCV"] > 0.0
    best_real = max(v for k, v in desk.items() if k != "ideal-oracle")
    assert desk["proposed-S&H-trimmed"] == best_real

    # Mixed day: proposed still positive and ahead of every heavy tracker.
    mobile = net["semi-mobile"]
    assert mobile["proposed-S&H-FOCV"] > 0.0
    for heavy in ("hill-climbing", "periodic-uC-FOCV", "photodiode-ref"):
        assert mobile["proposed-S&H-FOCV"] > mobile[heavy]

    # Outdoors: proposed within a few percent of the oracle.
    outdoor = net["outdoor"]
    assert outdoor["proposed-S&H-FOCV"] > 0.95 * outdoor["ideal-oracle"]
