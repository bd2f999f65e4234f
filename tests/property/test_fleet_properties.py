"""Property tests for the fleet engine's population axis and scatter().

Two invariants the vectorized paths must hold for any input:

* ``scatter`` never changes the population — concatenating its chunks
  reproduces the items exactly for every chunk count, and no chunk is
  ever empty (``n_chunks > len(items)`` used to be able to produce
  empty tails downstream).
* The fleet Monte Carlo kernel is elementwise over the board axis, so
  permuting the boards permutes the outputs bitwise — board results
  cannot depend on their neighbours or their position.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.montecarlo import scatter
from repro.pv.cells import am_1815
from repro.core.sample_hold import evaluate_sample_hold_boards

_CELL = am_1815()
_MODEL = _CELL.model_at(1000.0)
_VOC = _MODEL.voc()


class TestScatterProperties:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(), max_size=60),
        st.integers(min_value=1, max_value=100),
    )
    def test_chunk_count_never_changes_population(self, items, parts):
        chunks = scatter(items, parts)
        rebuilt = [x for chunk in chunks for x in chunk]
        assert rebuilt == items

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(), max_size=60),
        st.integers(min_value=1, max_value=100),
    )
    def test_chunks_nonempty_and_bounded(self, items, parts):
        chunks = scatter(items, parts)
        assert all(len(chunk) > 0 for chunk in chunks)
        assert len(chunks) <= min(parts, len(items))


# One draw per board: divider skew, offsets, injection and hold-cap
# spread within (generous) component-tolerance ranges.
_board = st.tuples(
    st.floats(min_value=6e6, max_value=8e6),    # top resistor
    st.floats(min_value=2e6, max_value=4e6),    # bottom resistor
    st.floats(min_value=-5e-3, max_value=5e-3),  # buffer offset (sample)
    st.floats(min_value=-5e-3, max_value=5e-3),  # buffer offset (readout)
    st.floats(min_value=0.0, max_value=4e-12),   # charge injection
    st.floats(min_value=5e-7, max_value=2e-6),   # hold capacitor
)


class TestBoardOrderInvariance:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(_board, min_size=2, max_size=12),
        st.randoms(use_true_random=False),
    )
    def test_permuting_boards_permutes_results_bitwise(self, boards, rng):
        perm = list(range(len(boards)))
        rng.shuffle(perm)

        def held(rows):
            top, bottom, u2, u4, inj, cap = (np.asarray(c) for c in zip(*rows))
            return evaluate_sample_hold_boards(
                _MODEL,
                _VOC,
                top=top,
                bottom=bottom,
                u2_offset=u2,
                u4_offset=u4,
                injection=inj,
                hold_c=cap,
                pulse_width=39e-3,
                hold_time=34.5,
            )

        direct = held(boards)
        permuted = held([boards[i] for i in perm])
        # Bitwise: elementwise NumPy ops cannot couple lanes.
        assert np.array_equal(direct[perm], permuted)
