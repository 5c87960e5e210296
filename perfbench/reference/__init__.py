"""Frozen copy of grouptotient's errors, numtheory, groups and lattice
modules, taken when the benchmark was defined; the host-speed
calibration in calib.py runs it.

Never edit these files to follow ``src/``: the calibration must do the
same work on every commit, so that a change to the package moves the
benchmark's numbers and this copy does not.
"""
