"""Property tests: the vectorized batch solver agrees with the scalar path.

The batch golden-section search mirrors the scalar one update for
update, but at a flat maximum the last few comparisons can flip on
sub-epsilon power differences — so ``v_mpp`` is only pinned to the
noise ball around the optimum while ``p_mpp`` (the physically
meaningful output) agrees to ~1e-12 relative, and Voc/Isc (closed-form
Lambert-W evaluations) agree essentially bitwise.

Between batches the contract is exact: the search is elementwise, so
solving a population in parts gives the one-batch bits.  The precompute
relies on it to search only the conditions the ideal-MPP replay reads
first and the rest later.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pv.batch import batch_mpp, solve_endpoints, solve_models, stack_model_params
from repro.pv.cells import am_1815, generic_csi, schott_1116929
from repro.pv.irradiance import DAYLIGHT
from repro.pv.mpp import k_factor, k_factor_curve
from repro.pv.single_diode import SingleDiodeModel, _lambertw_of_exp_scalar, lambertw_of_exp

lux_levels = st.floats(min_value=200.0, max_value=5000.0)

FIELDS = ("voc", "isc", "v_mpp", "i_mpp", "p_mpp")


@st.composite
def branch_models(draw, branch):
    """A single-diode model on one ``batch_current_at`` branch (or dark)."""
    dark = draw(st.integers(0, 7)) == 0
    return SingleDiodeModel(
        photocurrent=0.0 if dark else 10.0 ** draw(st.floats(-7.0, -3.0)),
        saturation_current=10.0 ** draw(st.floats(-12.0, -8.0)),
        ideality=draw(st.floats(1.0, 2.0)),
        n_series=draw(st.integers(1, 8)),
        series_resistance=0.0 if branch == "ideal-rs" else 10.0 ** draw(st.floats(-2.0, 2.0)),
        shunt_resistance=(
            float("inf") if branch == "infinite-rsh" else 10.0 ** draw(st.floats(3.0, 7.0))
        ),
        temperature=draw(st.floats(270.0, 340.0)),
    )


def _partition_solves(models, labels, endpoints=None):
    """Solve ``models`` in the parts ``labels`` assigns, reassembled in order."""
    out = {f: np.empty(len(models)) for f in FIELDS}
    for part in sorted(set(labels)):
        index = np.array([j for j, label in enumerate(labels) if label == part])
        solved = solve_models(
            [models[j] for j in index],
            memoize=False,
            endpoints=None if endpoints is None else endpoints.take(index),
        )
        for f in FIELDS:
            out[f][index] = getattr(solved, f)
    return out


@settings(max_examples=40, deadline=None)
@given(data=st.data(), branch=st.sampled_from(["ideal-rs", "infinite-rsh", "finite-rsh"]))
def test_solving_in_parts_matches_one_batch_bitwise(data, branch):
    # The precompute's split: Voc/Isc of every condition in one pass,
    # the MPP search over any parts of them.
    models = data.draw(st.lists(branch_models(branch), min_size=1, max_size=24))
    labels = data.draw(st.lists(st.integers(0, 3), min_size=len(models), max_size=len(models)))
    endpoints = solve_endpoints(stack_model_params(models))
    whole = solve_models(models, memoize=False, endpoints=endpoints)
    parts = _partition_solves(models, labels, endpoints)
    for f in FIELDS:
        assert np.array_equal(parts[f], getattr(whole, f)), f


@settings(max_examples=20, deadline=None)
@given(
    levels=st.lists(
        st.tuples(lux_levels, st.floats(280.0, 330.0)), min_size=1, max_size=16
    ),
    data=st.data(),
)
def test_whole_solves_in_parts_match_one_batch_bitwise(levels, data):
    # Indoor conditions keep every Lambert-W argument on the direct
    # branch, so even Voc/Isc solved per part are the one-batch bits.
    cell = am_1815()
    models = [cell.model_at(lux, temperature=t) for lux, t in levels]
    labels = data.draw(st.lists(st.integers(0, 3), min_size=len(models), max_size=len(models)))
    whole = solve_models(models, memoize=False)
    parts = _partition_solves(models, labels)
    for f in FIELDS:
        assert np.array_equal(parts[f], getattr(whole, f)), f


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(1, 96),
    make_cell=st.sampled_from([am_1815, schott_1116929, generic_csi]),
)
def test_outdoor_solves_in_parts_match_one_batch_bitwise(seed, size, make_cell):
    # Outdoor Voc takes lambertw_of_exp's asymptotic Newton branch, which
    # iterates each element to its own convergence: Voc/Isc solved per
    # part are the one-batch bits too.
    rng = np.random.default_rng(seed)
    cell = make_cell()
    models = [
        cell.model_at(lux, source=DAYLIGHT, temperature=t)
        for lux, t in zip(rng.uniform(2.0e4, 1.2e5, size), rng.uniform(280.0, 340.0, size))
    ]
    labels = rng.integers(0, 4, size).tolist()
    whole = solve_models(models, memoize=False)
    parts = _partition_solves(models, labels)
    for f in FIELDS:
        assert np.array_equal(parts[f], getattr(whole, f)), f


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_array_lambertw_matches_scalar_on_the_newton_branch(seed):
    x = np.random.default_rng(seed).uniform(100.0, 1.0e4, 500)
    scalar = [_lambertw_of_exp_scalar(v, exp=np.exp, log=np.log) for v in x.tolist()]
    assert lambertw_of_exp(x).tolist() == scalar
    # Any shape: a 2-D call (mixing both branches) equals the flat one.
    grid = np.concatenate([x, np.linspace(-5.0, 99.0, 100)]).reshape(30, 20)
    assert lambertw_of_exp(grid).tolist() == lambertw_of_exp(grid.ravel()).reshape(30, 20).tolist()


@settings(max_examples=30, deadline=None)
@given(lux=lux_levels)
def test_batch_matches_scalar_single_level(lux):
    cell = am_1815()
    scalar = cell.mpp(lux)
    batch = batch_mpp(cell, [lux])
    assert np.isclose(batch.voc[0], scalar.voc, rtol=1e-12, atol=0.0)
    assert np.isclose(batch.p_mpp[0], scalar.power, rtol=1e-9, atol=1e-18)
    assert abs(batch.v_mpp[0] - scalar.voltage) < 1e-6 * max(scalar.voc, 1.0)


@settings(max_examples=10, deadline=None)
@given(
    levels=st.lists(lux_levels, min_size=1, max_size=8),
)
def test_batch_matches_scalar_across_grids(levels):
    cell = am_1815()
    batch = batch_mpp(cell, levels)
    assert len(batch.voc) == len(levels)
    for i, lux in enumerate(levels):
        scalar = cell.mpp(lux)
        assert np.isclose(batch.voc[i], scalar.voc, rtol=1e-12, atol=0.0)
        assert np.isclose(batch.isc[i], scalar.isc, rtol=1e-12, atol=0.0)
        assert np.isclose(batch.p_mpp[i], scalar.power, rtol=1e-9, atol=1e-18)


def test_batch_memoizes_onto_models():
    cell = am_1815()
    models = [cell.model_at(lux) for lux in (250.0, 1000.0, 4000.0)]
    result = solve_models(models, memoize=True)
    for i, model in enumerate(models):
        # Memoised: the instance answers without re-solving, and agrees
        # with the batch arrays it was filled from.
        assert model.voc() == result.voc[i]
        assert model.mpp().power == result.p_mpp[i]


def test_mpp_result_roundtrip():
    cell = schott_1116929()
    batch = batch_mpp(cell, [300.0, 2000.0])
    for i in (0, 1):
        r = batch.mpp_result(i)
        assert r.power == batch.p_mpp[i]
        assert r.voltage == batch.v_mpp[i]
        assert r.voc == batch.voc[i]


def test_k_factor_curve_matches_scalar_k():
    for cell in (am_1815(), generic_csi()):
        levels = [200.0, 500.0, 1000.0, 2500.0, 5000.0]
        curve = k_factor_curve(cell, levels)
        scalars = np.array([k_factor(cell, lux) for lux in levels])
        assert np.allclose(curve, scalars, rtol=0.0, atol=1e-6)


def test_k_factor_curve_empty():
    assert len(k_factor_curve(am_1815(), [])) == 0
