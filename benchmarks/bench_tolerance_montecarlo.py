"""E11 (extension) — component-tolerance Monte Carlo over the S&H chain.

Table I's k spread (59.2–60.1 %) is explainable by ordinary component
variation: 1 %-class divider resistors, millivolt-class buffer offsets,
charge-injection spread, and capacitor tolerance.  This bench samples a
production run of virtual boards and compares the population's k band
against the paper's measured band.
"""

from repro.analysis.montecarlo import render_montecarlo, run_sample_hold_montecarlo


def test_tolerance_montecarlo(benchmark, save_result):
    result = benchmark.pedantic(
        lambda: run_sample_hold_montecarlo(boards=500), rounds=1, iterations=1
    )

    save_result("tolerance_montecarlo", render_montecarlo(result))

    # The population's 99 % band has the same width class as the paper's
    # measured 0.9-point band, centred on the design trim.
    lo, hi = result.k_band(0.99)
    assert 0.3 < hi - lo < 2.5, "band width should be Table-I class"
    assert abs(result.mean_k - 59.6) < 1.0, "population centred near the trim"
    # Most boards land inside (or near) the paper's band without any
    # per-board trimming — and R2's trimmer exists to fix the rest.
    assert result.yield_within(58.7, 60.6) > 0.9


def test_tolerance_sensitivity_offsets_dominate(benchmark, save_result):
    """Which tolerance dominates?  Re-run with each source isolated."""
    from repro.analysis.montecarlo import ToleranceSpec

    def isolated(**kwargs):
        base = dict(
            resistor_tolerance=0.0,
            offset_sigma_v=0.0,
            charge_injection_sigma=0.0,
            capacitor_tolerance=0.0,
        )
        base.update(kwargs)
        return run_sample_hold_montecarlo(
            boards=300, tolerances=ToleranceSpec(**base)
        ).sigma_k

    sigmas = benchmark.pedantic(
        lambda: {
            "resistors(1%)": isolated(resistor_tolerance=0.01 / 3.0),
            "offsets(1mV)": isolated(offset_sigma_v=1e-3),
            "injection(30%)": isolated(charge_injection_sigma=0.3),
            "capacitor(5%)": isolated(capacitor_tolerance=0.05 / 3.0),
        },
        rounds=1,
        iterations=1,
    )

    from repro.analysis.reporting import format_table

    rows = [[name, f"{sigma:.4f}"] for name, sigma in sorted(
        sigmas.items(), key=lambda kv: -kv[1]
    )]
    save_result(
        "tolerance_sensitivity",
        format_table(["tolerance source", "sigma_k (pp)"], rows,
                     title="E11 — which component tolerance dominates the k spread"),
    )

    # Divider resistors are the dominant term — the engineering reason
    # the paper replaces R2 with a trimmer.
    assert sigmas["resistors(1%)"] == max(sigmas.values())
