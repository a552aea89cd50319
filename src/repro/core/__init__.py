"""The paper's contribution: BOS, TraSh and their composition XMP.

* :mod:`repro.core.bos` — Buffer Occupancy Suppression, the per-subflow
  ECN window law (paper §2.1, Algorithm 1).
* :mod:`repro.core.trash` — Traffic Shifting, the coupling that tunes each
  subflow's growth parameter ``delta`` (paper §2.2): the law of the
  ``xmp`` row of :data:`repro.mptcp.coupling.SCHEMES`.
* :mod:`repro.core.utility` — the closed-form model behind both: Eqs. 1-9
  (marking-threshold bound, equilibrium marking probability, utility
  functions, the TraSh fixed point).
"""

from repro.core.bos import BosCC
from repro.core import analysis, utility

__all__ = ["BosCC", "utility", "analysis"]
