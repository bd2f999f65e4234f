"""Seeded request generators and the summary statistics the benchmark reports.

Everything here is a pure function of its arguments: the same seed gives the
same specs on every host, and nothing imports :mod:`repro`, so the program
under test only ever receives the generated specs.
"""

from __future__ import annotations

import math
import random
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

TECHNIQUES = (
    "ideal-oracle",
    "proposed-S&H-FOCV",
    "proposed-S&H-trimmed",
    "hill-climbing",
    "periodic-uC-FOCV",
    "pilot-cell",
    "photodiode-ref",
    "fixed-voltage",
    "no-MPPT-direct",
)
SCENARIOS = ("office-desk", "semi-mobile", "outdoor")
FAULT_CAMPAIGNS = (
    "light-dropout",
    "flicker-burst",
    "irradiance-ramp",
    "converter-brownout",
    "storage-short",
    "component-drift",
)

GOLDEN_HOURS = 24.0
GOLDEN_DT = 60.0
"""The golden-trace horizon (``tests/golden/comparison_*.json``)."""

COLD_DT_JITTER = 0.03
"""``comparison-cold`` steps sit within ±3 % of the golden dt: every request
misses the program cache, yet all cost about the same, so the median does
not depend on which sizes a seed happened to draw."""

SERVICE_HOURS = 24.0
SERVICE_DT = 10.0
"""The warm-up comparison every ``service-warm-mix`` subset job reuses."""

SERVICE_MIX = (("subset", 0.5), ("repeat", 0.3), ("montecarlo", 0.2))
"""``service-warm-mix`` class shares, in whole tenths.

There is no record of real traffic, so these shares are a design choice
and should be revisited once the service has logged real traffic. Each
share follows a sample-count rule for a run of :data:`MIN_RUN_JOBS` jobs:

* ``montecarlo`` is the smallest tenth that gives every board count at
  least :data:`MIN_JOBS_PER_BOARDS` jobs (2/10 × 200 / 4 counts = 10).
* ``repeat`` is the largest tenth that keeps the median at least
  :data:`MEDIAN_MARGIN` of the ranked jobs above the near-free repeats.
  Repeats are the only traffic that reaches coalescing and the result
  cache. The margin keeps ``latency_s.p50`` on computed jobs.
* ``subset`` takes the rest. Program-cache hits are what this workload
  is for, so they get the most samples.
"""

MIN_RUN_JOBS = 200
"""Fewest jobs a 25 s ``service-warm-mix`` run completed (205, 2-vCPU host)."""

MIN_JOBS_PER_BOARDS = 10
MEDIAN_MARGIN = 0.2

MONTECARLO_BOARDS = (250, 500, 1000, 2000)
"""The service's default board count (500), halved once and doubled up to
2000, the size measured at ~0.2 s a job with interpreted kernels."""

MIN_SAMPLES_ABOVE = 10
"""A tail percentile is reported only when this many samples lie above it."""


def comparison_cold_specs(seed: int, count: int = 400) -> List[Tuple[float, float]]:
    """``(hours, dt)`` pairs for ``comparison-cold``, none repeated.

    The golden pair (24 h, 60 s) sits at a seeded position among the first
    four requests, so every run checks it; the others jitter dt around it.
    """
    rng = random.Random(f"comparison-cold:{seed}")
    pairs: List[Tuple[float, float]] = []
    seen = {(GOLDEN_HOURS, GOLDEN_DT)}
    while len(pairs) < count - 1:
        dt = round(GOLDEN_DT * (1.0 + rng.uniform(-COLD_DT_JITTER, COLD_DT_JITTER)), 3)
        if (GOLDEN_HOURS, dt) not in seen:
            seen.add((GOLDEN_HOURS, dt))
            pairs.append((GOLDEN_HOURS, dt))
    pairs.insert(rng.randrange(4), (GOLDEN_HOURS, GOLDEN_DT))
    return pairs


def resilience_campaigns(seed: int) -> Tuple[List[str], int]:
    """One pass of ``resilience-faults``: clean first, faults in seeded order.

    Returns ``(campaigns, fault_seed)``; the fault seed drives every
    campaign's fault windows.
    """
    rng = random.Random(f"resilience-faults:{seed}")
    order = list(FAULT_CAMPAIGNS)
    rng.shuffle(order)
    return ["clean"] + order, rng.randrange(2**31 - 1)


def _pick(rng: random.Random, names: Sequence[str], k: int) -> Tuple[str, ...]:
    chosen = set(rng.sample(list(names), k))
    return tuple(n for n in names if n in chosen)


class _Subsets:
    """Distinct technique/scenario subsets whose sizes cycle in shuffled order.

    Every cycle visits each (technique count, scenario count) pair once, so
    the lanes per job are spread the same way in any run, and no job size
    is favoured (there is no traffic record to favour one).  A size with no
    unused subset left yields an unused subset of random size instead.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.sizes: List[Tuple[int, int]] = []
        self.seen = set()

    def _draw(self, k: int, m: int, tries: int):
        for _ in range(tries):
            key = (_pick(self.rng, TECHNIQUES, k), _pick(self.rng, SCENARIOS, m))
            if key not in self.seen:
                self.seen.add(key)
                return key
        return None

    def next(self) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
        if not self.sizes:
            self.sizes = [
                (k, m) for k in range(1, len(TECHNIQUES) + 1) for m in range(1, len(SCENARIOS) + 1)
            ]
            self.rng.shuffle(self.sizes)
        key = self._draw(*self.sizes.pop(), tries=64)
        while key is None:
            key = self._draw(
                self.rng.randint(1, len(TECHNIQUES)), self.rng.randint(1, len(SCENARIOS)), tries=1
            )
        return key


def warmup_spec() -> Dict:
    """The full comparison ``service-warm-mix`` submits during set-up."""
    return {
        "kind": "comparison",
        "params": {"hours": SERVICE_HOURS, "dt": SERVICE_DT, "engine": "compiled"},
    }


def service_mix(seed: int, count: int = 1200) -> List[Dict]:
    """The ``service-warm-mix`` request stream, consumed in order.

    Each entry is ``{"class": ..., "spec": ...}``:

    * ``subset`` — a technique/scenario subset of the warm-up comparison,
      never the same subset twice (program-cache hits);
    * ``repeat`` — an exact copy of an earlier subset or Monte Carlo spec
      (coalescing and the result cache);
    * ``montecarlo`` — a Monte Carlo job with seeded board count and seed.

    Classes come in shuffled blocks of ten holding exactly the
    :data:`SERVICE_MIX` shares, and board counts in shuffled cycles, so
    whatever prefix a run consumes has the same composition for every seed.
    """
    rng = random.Random(f"service-warm-mix:{seed}")
    block = [name for name, share in SERVICE_MIX for _ in range(round(share * 10))]
    stream: List[Dict] = []
    originals: List[Dict] = []
    subsets = _Subsets(rng)
    boards: List[int] = []
    while len(stream) < count:
        rng.shuffle(block)
        if not originals:
            block.sort(key=lambda cls: cls == "repeat")  # nothing to repeat yet
        for cls in block:
            if cls == "repeat":
                stream.append({"class": "repeat", "spec": rng.choice(originals)})
                continue
            if cls == "subset":
                techniques, scenarios = subsets.next()
                params = dict(
                    warmup_spec()["params"], techniques=list(techniques), scenarios=list(scenarios)
                )
                spec = {"kind": "comparison", "params": params}
            else:
                if not boards:
                    boards = list(MONTECARLO_BOARDS)
                    rng.shuffle(boards)
                spec = {
                    "kind": "montecarlo",
                    "params": {"boards": boards.pop(), "seed": rng.randrange(2**31 - 1)},
                }
            originals.append(spec)
            stream.append({"class": cls, "spec": spec})
    return stream[:count]


# --- statistics ----------------------------------------------------------------


def median(values: Sequence[float]) -> Dict:
    """The median with its sample count."""
    return {"value": float(statistics.median(values)), "samples": len(values)}


def percentile(values: Sequence[float], q: float) -> Optional[Dict]:
    """The ``q``-th percentile (nearest rank) with its sample count.

    Returns None unless at least :data:`MIN_SAMPLES_ABOVE` samples lie
    strictly above the percentile's rank — a tail figure resting on fewer
    is noise, not a measurement.
    """
    n = len(values)
    if n == 0:
        return None
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_SAMPLES_ABOVE:
        return None
    return {"value": float(sorted(values)[rank - 1]), "samples": n}
