"""Trajectory helpers shared by the tests: the free flow as one stack,
the slices of a stack as Field views for the single-field norms, and
the tracemalloc readings the memory tests compare with stack sizes."""

import tracemalloc

import numpy as np

from fracnls.solver import TimeGrid, Trajectory, _free_slices


def free_trajectory(phi, tg: TimeGrid) -> Trajectory:
    """Trajectory of the free group e^{itLap} phi on the slice times.

    Slice 0 is the datum itself; slice m is ifftn(exp(-i t_m |k|^2)
    fftn(phi)), copied slice by slice into the one stack."""
    out = np.empty((tg.slices + 1,) + phi.grid.shape, dtype=complex)
    for m, values in enumerate(_free_slices(phi, tg)):
        out[m] = values
    return Trajectory._adopt(tg, phi.grid, out)


def fields(traj: Trajectory):
    """The slices of a trajectory as read-only Field views, in time order."""
    return (traj.field(m) for m in range(traj.timegrid.slices + 1))


def stack_bytes(grid, tg: TimeGrid) -> int:
    """Bytes of one complex trajectory stack on the grid and time grid."""
    return (tg.slices + 1) * grid.size * 16


def traced_memory(fn, *args, **kwargs) -> tuple:
    """(retained, peak) bytes that tracemalloc sees over fn(*args,
    **kwargs): what is still allocated once its result is dropped, and
    the most that was allocated at once."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def traced_peak(fn, *args, **kwargs) -> int:
    """Peak bytes that tracemalloc sees while fn(*args, **kwargs) runs."""
    return traced_memory(fn, *args, **kwargs)[1]


def warm(grid):
    """Build the grid's one cached mesh array, the level index, so a
    trace counts none."""
    grid.wavenumber_levels
