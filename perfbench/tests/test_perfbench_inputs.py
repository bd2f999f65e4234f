"""Seeded input generators and the percentile rule.

Run with ``python3 -m pytest perfbench/tests``.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import inputs  # noqa: E402


@pytest.mark.parametrize(
    "generate",
    [
        inputs.comparison_cold_specs,
        inputs.resilience_campaigns,
        inputs.service_mix,
    ],
)
def test_same_seed_same_specs(generate):
    assert generate(7) == generate(7)
    assert generate(7) != generate(8)


class TestComparisonCold:
    def test_never_repeats_a_program_key(self):
        for seed in range(20):
            pairs = inputs.comparison_cold_specs(seed)
            assert len(set(pairs)) == len(pairs)

    def test_golden_request_comes_early(self):
        for seed in range(20):
            pairs = inputs.comparison_cold_specs(seed)
            assert pairs.index((inputs.GOLDEN_HOURS, inputs.GOLDEN_DT)) < 4

    def test_steps_stay_near_the_golden_size(self):
        for hours, dt in inputs.comparison_cold_specs(3):
            assert hours == inputs.GOLDEN_HOURS
            assert dt >= 10.0
            assert abs(dt / inputs.GOLDEN_DT - 1.0) <= inputs.COLD_DT_JITTER + 1e-9


class TestResilience:
    def test_one_pass_covers_every_campaign_once_clean_first(self):
        campaigns, fault_seed = inputs.resilience_campaigns(5)
        assert campaigns[0] == "clean"
        assert sorted(campaigns[1:]) == sorted(inputs.FAULT_CAMPAIGNS)
        assert 0 <= fault_seed < 2**31 - 1


class TestServiceMix:
    @pytest.mark.parametrize("length", [10, 50, 200, 1200])
    def test_class_proportions_hold_in_every_block_prefix(self, length):
        # A run consumes only a prefix of the stream.
        for seed in (11, 12):
            stream = inputs.service_mix(seed)[:length]
            for name, weight in inputs.SERVICE_MIX:
                share = sum(1 for e in stream if e["class"] == name) / len(stream)
                assert share == pytest.approx(weight), name

    def test_shares_follow_their_sample_count_rules(self):
        shares = dict(inputs.SERVICE_MIX)
        boards = len(inputs.MONTECARLO_BOARDS)

        def per_board(share):
            return share * inputs.MIN_RUN_JOBS / boards

        # Monte Carlo: the smallest tenth with enough jobs per board count.
        assert per_board(shares["montecarlo"]) >= inputs.MIN_JOBS_PER_BOARDS
        assert per_board(shares["montecarlo"] - 0.1) < inputs.MIN_JOBS_PER_BOARDS
        # Repeats: the largest tenth that keeps the median off them.
        assert 0.5 - shares["repeat"] >= inputs.MEDIAN_MARGIN - 1e-9
        assert 0.5 - (shares["repeat"] + 0.1) < inputs.MEDIAN_MARGIN - 1e-9
        assert shares["subset"] == pytest.approx(1.0 - shares["repeat"] - shares["montecarlo"])

    def test_a_short_run_has_enough_jobs_per_board_count(self):
        for seed in (21, 22, 23):
            stream = inputs.service_mix(seed)[: inputs.MIN_RUN_JOBS]
            for count in inputs.MONTECARLO_BOARDS:
                jobs = [
                    e
                    for e in stream
                    if e["class"] == "montecarlo" and e["spec"]["params"]["boards"] == count
                ]
                assert len(jobs) >= inputs.MIN_JOBS_PER_BOARDS, count

    def test_repeats_copy_an_earlier_spec(self):
        stream = inputs.service_mix(13)
        for i, entry in enumerate(stream):
            if entry["class"] == "repeat":
                earlier = [e["spec"] for e in stream[:i] if e["class"] != "repeat"]
                assert entry["spec"] in earlier

    def test_subsets_are_distinct_and_warm(self):
        stream = inputs.service_mix(14)
        subsets = [e["spec"]["params"] for e in stream if e["class"] == "subset"]
        keys = [(tuple(p["techniques"]), tuple(p["scenarios"])) for p in subsets]
        assert len(set(keys)) == len(keys)
        warm = inputs.warmup_spec()["params"]
        for p in subsets:
            assert (p["hours"], p["dt"], p["engine"]) == (warm["hours"], warm["dt"], warm["engine"])

    def test_montecarlo_board_counts_cycle(self):
        stream = inputs.service_mix(15)
        boards = [e["spec"]["params"]["boards"] for e in stream if e["class"] == "montecarlo"]
        cycle = len(inputs.MONTECARLO_BOARDS)
        for start in range(0, len(boards) - cycle + 1, cycle):
            assert sorted(boards[start : start + cycle]) == sorted(inputs.MONTECARLO_BOARDS)


class TestPercentileRule:
    def test_tail_needs_ten_samples_above(self):
        values = [float(i) for i in range(1, 100)]  # 99 samples: 9 above p90
        assert inputs.percentile(values, 90) is None
        values.append(100.0)  # 100 samples: 10 above p90
        assert inputs.percentile(values, 90) == {"value": 90.0, "samples": 100}

    def test_always_carries_the_sample_count(self):
        assert inputs.percentile([1.0] * 40, 50) == {"value": 1.0, "samples": 40}
        assert inputs.median([3.0, 1.0, 2.0]) == {"value": 2.0, "samples": 3}

    def test_empty_input_reports_nothing(self):
        assert inputs.percentile([], 50) is None
