"""Fixtures shared by the test modules."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest


@pytest.fixture
def edge_probes():
    """Probe points for scalar point queries on a map.

    Each float edge and its two float neighbours, the Fractions e -+ 2^-80
    (which round onto every nonzero edge's float), 2000 seeded floats
    around the domain and one numpy scalar.
    """

    def points(m):
        out = []
        for e in m.edges:
            f = float(e)
            out += [f, math.nextafter(f, math.inf), math.nextafter(f, -math.inf)]
            for q in (e - Fraction(1, 2**80), e + Fraction(1, 2**80)):
                assert e == 0 or float(q) == f
                out.append(q)
        lo, hi = float(m.domain_lo), float(m.domain_hi)
        out += np.random.default_rng(17).uniform(lo - 0.05, hi + 0.05, 2000).tolist()
        out.append(np.float64(0.7))
        return out

    return points


@pytest.fixture
def traced_peak():
    """Peak bytes tracemalloc sees allocated while fn() runs.

    Counts only what fn allocates, numpy array data included, from a
    tracing start with a fresh peak.
    """

    def peak(fn):
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak
