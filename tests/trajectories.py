"""Trajectory helpers shared by the tests: the free flow as one stack,
and the slices of a stack as the fields `spacetime_norm` streams."""

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
