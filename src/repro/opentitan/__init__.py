"""OpenTitan Root-of-Trust model (paper §III-B).

Contains the Ibex secure microcontroller (an RV32IM hart with Ibex
timing), the TL-UL device fabric, the flash storage, the HMAC
accelerator, the RoT-side PLIC, and the :class:`repro.opentitan.rot.OpenTitan`
top level that assembles them.
"""

from repro.opentitan.ibex import make_ibex
from repro.opentitan.rot import OpenTitan, RotConfig

__all__ = ["make_ibex", "OpenTitan", "RotConfig"]
