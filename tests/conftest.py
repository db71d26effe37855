from collections import Counter

import cronlab  # noqa: F401  first: its one-BLAS-thread default must precede numpy's import
import numpy as np
import pytest

from cronlab.grid import divergence, gradient, lebesgue_norm


def _divergence_free(V, tol=1e-10) -> bool:
    """The oracle for a divergence-free vector field: sup |div V| within tol of
    the largest sup |d_i V_j|."""
    dv = lebesgue_norm(divergence(V), np.inf)
    scale = max(lebesgue_norm(d, np.inf)
                for c in V.components for d in gradient(c).components)
    return dv <= tol * max(scale, 1e-300)


@pytest.fixture
def divergence_free():
    return _divergence_free


def nyquist_mask(grid) -> np.ndarray:
    """The oracle for the Nyquist rows: True on the lattice points of grid shape
    with some axis at the frequency freq_1d[N/2]."""
    on_axis = grid.freq_1d == grid.freq_1d[grid.N // 2]
    return np.any(np.meshgrid(*([on_axis] * grid.n), indexing="ij"), axis=0)


# set in a child process's environment, these force the code paths that a CPU
# with AVX2 and no AVX-512 runs: OpenBLAS's Haswell kernels and numpy's AVX2 loops
NO_AVX512 = {"OPENBLAS_CORETYPE": "Haswell",
             "NPY_DISABLE_CPU_FEATURES": "X86_V4,AVX512_ICL,AVX512_SPR"}


FFT_ENTRY_POINTS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
                    "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")


def count_fft_calls(monkeypatch) -> Counter:
    """Count calls into every numpy.fft entry point, by name, until monkeypatch
    undoes its patches; names never called are absent from the counter."""
    calls = Counter()
    for name in FFT_ENTRY_POINTS:
        def counted(*args, _original=getattr(np.fft, name), _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    return calls


@pytest.fixture
def count_transforms(monkeypatch):
    """A function that starts counting calls into every numpy.fft entry point,
    by name, and returns the counter; names never called are absent."""
    return lambda: count_fft_calls(monkeypatch)
