"""Attack scenarios: the code-reuse attacks TitanCFI exists to stop (§I, §VI).

:mod:`repro.attacks.programs` holds the victim programs;
:mod:`repro.attacks.rop` builds the protected platform and runs one
attack on it (:func:`~repro.attacks.rop.run_attack_scenario`).
"""
