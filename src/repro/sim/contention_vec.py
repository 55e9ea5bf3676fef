"""Import location kept for ``perfbench/probe.py``.

The CSMA/CA state, sense grid and flight scan included, is
:class:`repro.sim.contention.ContentionState`.
"""

from .contention import ContentionState


class ContentionVecState(ContentionState):
    """Defines nothing; exists only for ``perfbench/probe.py``'s import."""
