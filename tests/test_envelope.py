"""Lipschitz envelopes against the frozen block implementation.

reference_envelope is bounds._envelope as it was before the truncated cone
kernel: for every cell, the extremum over all cells of base -/+ slope * d,
with d taken from a |a|^2 + |b|^2 - 2 a.b distance block of 512 rows. The
new envelope uses the exact offset length h * |k|, where the block's
matmul identity loses a few digits for near cells (up to ~3e-11 on 1-D
grids with small zeta), so the two agree to 1e-9, not bit for bit.
"""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dstsp_lab import bounds as bnd

TOL = 1e-9


def reference_envelope(field, zeta, upper):
    centers = field.cell_centers()
    flat = field.values.ravel()
    if upper:
        base = np.maximum(flat, zeta)
    else:
        base = np.minimum(flat, 1.0 / zeta)
    out = np.empty_like(base)
    slope = 1.0 / zeta
    for lo in range(0, centers.shape[0], 512):
        hi = min(lo + 512, centers.shape[0])
        a, b = centers[lo:hi], centers
        d2 = (np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :]
              - 2.0 * (a @ b.T))
        np.maximum(d2, 0.0, out=d2)
        dist = np.sqrt(d2)
        if upper:
            out[lo:hi] = np.maximum((base[None, :] - slope * dist).max(axis=1),
                                    base[lo:hi])
        else:
            out[lo:hi] = np.minimum((base[None, :] + slope * dist).min(axis=1),
                                    base[lo:hi])
    return out.reshape(field.dims)


def _assert_matches_reference(field, zeta):
    for upper, envelope in ((True, bnd.upper_reg), (False, bnd.lower_reg)):
        got = envelope(field, zeta).values
        np.testing.assert_allclose(got, reference_envelope(field, zeta, upper),
                                   rtol=TOL, atol=TOL)


@st.composite
def _grids(draw):
    ndim = draw(st.integers(1, 3))
    dims = tuple(draw(st.integers(1, 24)) for _ in range(ndim))
    if ndim == 3:
        # keep the oracle's cells x cells work small
        dims = dims[:2] + (min(dims[2], max(1, 1024 // (dims[0] * dims[1]))),)
    cell = draw(st.sampled_from([1.0 / max(dims), 0.03, 0.25]))
    origin = tuple(draw(st.floats(-1.0, 1.0)) for _ in range(ndim))
    return origin, cell, dims


@settings(max_examples=25)
@given(_grids(), st.floats(0.005, 1.0), st.floats(0.0, 2.0),
       st.integers(0, 2 ** 32 - 1))
def test_envelopes_match_reference(grid, zeta, floor, seed):
    origin, cell, dims = grid
    rng = np.random.default_rng(seed)
    # value ranges whose truncation radius is 0 (a constant field, every
    # offset pruned), a tenth or half of the grid's longest side, or twice
    # that side; noise, and a few spikes over a flat floor whose cones reach
    # out to the full radius
    for sides in (0.0, 0.1, 0.5, 2.0):
        scale = sides * max(dims) * cell / zeta
        for power in (1, 16):
            vals = floor + scale * rng.random(dims) ** power
            _assert_matches_reference(bnd.GridField(origin, cell, vals), zeta)


def test_envelopes_match_reference_on_seeded_48x48_field():
    # the benchmark's value range, once as noise and once as spikes
    rng = np.random.default_rng(20261020)
    noise = rng.uniform(0.5, 4.0, (48, 48))
    spikes = np.where(rng.random((48, 48)) < 0.01, 4.0, 0.5)
    for vals in (noise, spikes):
        _assert_matches_reference(bnd.GridField((0.0, 0.0), 1.0 / 48, vals),
                                  0.05)


def test_envelope_builds_no_cells_by_cells_block():
    # 128 x 128 cells: a distance block against all cells would need tens
    # of MB; the offset loop needs a few copies of the 128 kB field
    rng = np.random.default_rng(7)
    field = bnd.GridField((0.0, 0.0), 1.0 / 128,
                          rng.uniform(0.5, 4.0, (128, 128)))
    tracemalloc.start()
    try:
        bnd.upper_reg(field, 0.05)
        bnd.lower_reg(field, 0.05)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 1024 * 1024
