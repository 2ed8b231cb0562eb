import numpy as np
import pytest
from numpy.testing import assert_allclose

from curverecon.quadrature import cumulative_simpson, odd_sample_count


def test_exact_for_quadratics_everywhere():
    t = np.linspace(0.0, 3.0, 11)
    out = cumulative_simpson(t**2, t[1] - t[0])
    assert_allclose(out, t**3 / 3.0, atol=1e-14)


def test_exact_for_cubics_at_even_nodes():
    t = np.linspace(0.0, 2.0, 21)
    out = cumulative_simpson(t**3, t[1] - t[0])
    assert_allclose(out[::2], (t**4 / 4.0)[::2], atol=1e-14)


def test_cosine_fourth_order():
    n = 4097
    t = np.linspace(0.0, 2.0 * np.pi, n)
    out = cumulative_simpson(np.cos(t), t[1] - t[0])
    assert np.abs(out - np.sin(t)).max() < 1e-12


def test_vector_valued_integrand():
    t = np.linspace(0.0, 1.0, 101)
    y = np.stack([np.ones_like(t), 2.0 * t], axis=1)
    out = cumulative_simpson(y, t[1] - t[0])
    assert_allclose(out[:, 0], t, atol=1e-14)
    assert_allclose(out[:, 1], t**2, atol=1e-14)


def test_entry_major_input_gives_the_same_bytes_in_its_own_layout():
    # an (n, 2, 2) view of a C-ordered (2, 2, n) array, as picard's frames are
    y = np.random.default_rng(3).standard_normal((1025, 2, 2))
    entry_major = np.empty((2, 2, 1025)).transpose(2, 0, 1)
    entry_major[...] = y
    out = cumulative_simpson(entry_major, 0.01)
    reference = cumulative_simpson(y, 0.01)
    assert out.tobytes() == reference.tobytes()
    assert out.transpose(1, 2, 0).flags.c_contiguous
    assert reference.flags.c_contiguous


def _reference(y, dx):
    """The body before the one-scratch-array rewrite: three full expressions, the same operations in the same order."""
    out = np.empty_like(y)
    out[0] = 0.0
    y0, y1, y2 = y[0:-2:2], y[1:-1:2], y[2::2]
    even = np.cumsum((y0 + 4.0 * y1 + y2) * (dx / 3.0), axis=0)
    out[2::2] = even
    half = (5.0 * y0 + 8.0 * y1 - y2) * (dx / 12.0)
    out[1] = half[0]
    out[3::2] = even[:-1] + half[1:]
    return out


# the C-ordered buffer's shape for n nodes, and the axes that view it as (n, ...)
LAYOUTS = {
    "1-d": (lambda n: (n,), (0,)),
    "c-ordered-n-2": (lambda n: (n, 2), (0, 1)),
    "n-2-view-of-2-n": (lambda n: (2, n), (1, 0)),
    "entry-major-n-2-2": (lambda n: (2, 2, n), (2, 0, 1)),
}


@pytest.mark.parametrize("n", [3, 5, 1025])
@pytest.mark.parametrize("layout", LAYOUTS)
def test_same_bytes_as_the_reference_body_in_the_input_layout(layout, n):
    shape, axes = LAYOUTS[layout]
    y = np.random.default_rng(n).standard_normal(shape(n)).transpose(axes)
    dx = 2.0 * np.pi / (n - 1)
    out = cumulative_simpson(y, dx)
    assert out.tobytes() == _reference(y, dx).tobytes()
    assert out.transpose(np.argsort(axes)).flags.c_contiguous


def test_convergence_order():
    # halving h should shrink the endpoint error ~16x
    errs = []
    for n in (129, 257):
        t = np.linspace(0.0, 1.0, n)
        out = cumulative_simpson(np.exp(t), t[1] - t[0])
        errs.append(abs(out[-1] - (np.e - 1.0)))
    assert errs[0] / errs[1] > 12.0


def test_even_count_rejected():
    with pytest.raises(ValueError):
        cumulative_simpson(np.zeros(10), 0.1)


def test_odd_sample_count():
    assert odd_sample_count(4096) == 4097
    assert odd_sample_count(17) == 17
    with pytest.raises(ValueError):
        odd_sample_count(2)
