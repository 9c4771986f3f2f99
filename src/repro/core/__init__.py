"""TitanCFI core: the CVA6 commit-stage CFI extension (paper §IV).

This package is the paper's contribution proper:

* :mod:`repro.core.commit_log` — the 224-bit commit-log packet,
* :mod:`repro.core.filter` — the CFI filter,
* :mod:`repro.core.queue` — the CFI queue and its push (stall) rule,
* :mod:`repro.core.log_writer` — the AXI log-writer FSM,
* :mod:`repro.core.stage` — the assembled CFI stage,
* :mod:`repro.core.config` — configuration record.
"""

from repro.core.commit_log import COMMIT_LOG_BITS, COMMIT_LOG_BYTES, CommitLog
from repro.core.config import TitanCfiConfig
from repro.core.filter import CfiFilter
from repro.core.queue import CfiQueue
from repro.core.log_writer import LogWriter, WriterState
from repro.core.stage import CfiStage

__all__ = [
    "COMMIT_LOG_BITS",
    "COMMIT_LOG_BYTES",
    "CommitLog",
    "TitanCfiConfig",
    "CfiFilter",
    "CfiQueue",
    "LogWriter",
    "WriterState",
    "CfiStage",
]
