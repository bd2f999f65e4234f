"""E12 (extension) — week-long endurance of the complete harvesting node.

Full stack, seven days: trimmed S&H platform, buck-boost converter,
supercapacitor, and an energy-aware duty-cycled sensor node through five
office days and a daylight-only weekend.  Pass: the node never loses its
store, rides the weekend trough, and ends the week at least as charged
as it began — the paper's "operate indefinitely" purpose statement.
"""

from repro.experiments import endurance


def test_endurance_week(benchmark, save_result):
    result = benchmark.pedantic(
        lambda: endurance.run_week(dt=20.0), rounds=1, iterations=1
    )

    save_result("endurance_week", endurance.render(result))

    assert result.survived, "the node must never lose its store"
    assert result.energy_neutral, "the week must end at least as charged"
    assert result.total_reports > 1000, "the node must actually do its job"
    # The weekend trough is real: Saturday harvests far less than Monday.
    assert result.days[5].harvested_j < 0.5 * result.days[0].harvested_j
    # And the scheduler reacts: weekday report counts grow as the store
    # fills, weekend counts do not collapse to zero.
    assert result.days[6].reports > 0
