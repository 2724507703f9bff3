"""The solvers' SVD seam ``_svd`` against ``np.linalg.svd``.

``_svd`` calls numpy's LAPACK gufunc without the wrapper around it, so it
must give the wrapper's results bit for bit, with and without U and V.  On
a design LAPACK rejects, where the wrapper raises LinAlgError, it raises
the invalid flag and fills that window's factors, and only that window's,
with NaN: the rank rule relies on those NaN singular values to find a
broken window.
"""

import numpy as np
import pytest

from seqloc.solvers import _svd

SHAPES = [(8, 4), (8, 6), (10, 6), (3, 4)]  # 3x4: fewer rows than columns
STACKS = [1, 3, 50]


def _designs(count, shape, seed=19):
    return np.random.default_rng(seed).standard_normal((count,) + shape)


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize("count", STACKS, ids=lambda t: f"T={t}")
def test_svd_equals_numpy_bit_for_bit(count, shape):
    a = _designs(count, shape)
    ours = _svd(a)
    theirs = np.linalg.svd(a, full_matrices=False)
    assert len(ours) == 3
    for mine, ref in zip(ours, theirs):
        assert mine.dtype == ref.dtype and mine.shape == ref.shape
        assert mine.tobytes() == ref.tobytes()
    s = _svd(a, compute_uv=False)
    ref = np.linalg.svd(a, full_matrices=False, compute_uv=False)
    assert s.dtype == ref.dtype and s.shape == ref.shape
    assert s.tobytes() == ref.tobytes()


@pytest.mark.parametrize("compute_uv", [True, False], ids=("usv", "s"))
@pytest.mark.parametrize("count", STACKS, ids=lambda t: f"T={t}")
def test_svd_rejects_a_nan_design_as_numpy_does(count, compute_uv):
    a = _designs(count, (8, 4))
    bad = count // 2
    a[bad, 2, 1] = np.nan
    with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
        np.linalg.svd(a, full_matrices=False, compute_uv=compute_uv)
    # Without U and V, LAPACK may also raise the divide-by-zero flag.
    with np.errstate(all="ignore", invalid="raise"), \
            pytest.raises(FloatingPointError, match="invalid value"):
        _svd(a, compute_uv)
    with np.errstate(all="ignore"):
        ours = _svd(a, compute_uv)
    ours = ours if compute_uv else (ours,)
    assert len(ours) == (3 if compute_uv else 1)
    for k in range(count):
        if k == bad:
            assert all(np.isnan(mine[k]).all() for mine in ours)
            continue
        theirs = np.linalg.svd(a[k], full_matrices=False,
                               compute_uv=compute_uv)
        for mine, ref in zip(ours, theirs if compute_uv else (theirs,)):
            assert mine[k].dtype == ref.dtype and mine[k].shape == ref.shape
            assert mine[k].tobytes() == ref.tobytes()
