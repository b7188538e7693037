"""Workload studies beyond single read-only joins.

* :mod:`repro.workloads.updates` -- mixed read/write request streams
  (:func:`make_update_stream`) and the sorted-array-with-updates
  reference (:class:`SortedArrayOracle`) the serving layer's delta tier
  is checked against.
* :mod:`repro.workloads.nonequi` -- the band width that gives the
  non-equi sweep its target selectivity
  (:func:`band_epsilon_for_matches`).
"""

from .nonequi import band_epsilon_for_matches
from .updates import SortedArrayOracle, UpdateStream, make_update_stream

__all__ = [
    "band_epsilon_for_matches",
    "SortedArrayOracle",
    "UpdateStream",
    "make_update_stream",
]
