"""TitanCFI — Control-Flow Integrity in the Root-of-Trust (reproduction).

Full-system Python reproduction of Parisi et al., "TitanCFI: Toward
Enforcing Control-Flow Integrity in the Root-of-Trust" (DATE 2024).

Entry points most users want:

* :func:`repro.system.soc.build_soc` — assemble the protected SoC;
* :func:`repro.firmware.shadow_stack.shadow_stack_firmware` — the RV32
  CFI firmware for the RoT;
* :class:`repro.system.sim.SystemSimulator` — the cycle co-simulator;
* :mod:`repro.eval.table1` … ``table4`` / ``figure1`` — regenerate the
  paper's evaluation.

README.md maps the architecture (its "Layout" section) and lists the
table CLIs (its "Regenerating the paper's tables" section).
"""

__version__ = "1.0.0"
