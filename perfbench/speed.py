"""Machine-speed reference for timing on a shared host.

The host this benchmark runs on slows down by up to 2x for seconds at a
time, when other tenants are busy; CPU time slows down with wall time.
A short, fixed piece of pure-Python work timed right before and right
after each measured interval slows down by the same factor (correlation
0.9 between adjacent samples), so an interval is reported in *reference
seconds*: its wall time scaled by REFERENCE_S over the calibration time
measured around it. On an unloaded machine of the kind this was written
on, reference seconds equal wall seconds.
"""
import gc
from fractions import Fraction
from time import perf_counter

#: Seconds calibrate() takes on an unloaded 2-core Xeon (Sapphire Rapids,
#: 2.0 GHz) under CPython 3.11: about its fastest time there.
REFERENCE_S = 0.010


def calibrate():
    """Time a fixed piece of Fraction and dict work; about 10 ms unloaded.

    The work uses only the standard library, so no change to qharmonic
    can change it. The garbage collector is off while it runs: a
    collection started by its allocations would scan the caller's whole
    heap, and the time would follow the state of the process instead of
    the speed of the machine.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        acc = {}
        for i in range(1, 4000):
            acc[i % 97] = acc.get(i % 97, 0) + Fraction(i, i + 3)
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def to_reference(seconds, before, after):
    """Wall seconds measured between two calibrations, in reference seconds."""
    return seconds * REFERENCE_S * 2 / (before + after)
