"""CVA6 host-core model: the commit stage TitanCFI taps into.

The execution engine itself lives in :mod:`repro.hart`; this package adds
the commit-side interface TitanCFI taps into (paper §III-A / §IV-B).
The modelled core retires one instruction per cycle.
"""

from repro.cva6.commit import CommitStage

__all__ = ["CommitStage"]
