#!/usr/bin/env python3
"""The "any policy in software" claim: a forward-edge policy, no HW change.

TitanCFI's pitch over hardware monitors (paper §II) is that the policy
is firmware: swapping enforcement logic costs a C (here: Python model)
rewrite, not an RTL respin.  This example takes the same commit-log
stream the CFI filter produces and runs TWO policies over it:

* the shadow stack (backward edges), and
* a label-based forward-edge policy that only admits indirect transfers
  landing on registered function entry points,

then shows a jump-table corruption that the shadow stack misses but the
forward-edge policy catches.

Run:  python examples/custom_policy.py
"""

from repro.attacks.programs import indirect_jump_program
from repro.campaign.runner import capture_commit_logs
from repro.firmware.policies import (
    CheckResult,
    CompositePolicy,
    ForwardEdgePolicy,
    ShadowStackPolicy,
)
from repro.system.addresses import AddressMap


def main() -> None:
    addresses = AddressMap()

    for corrupt in (False, True):
        program = indirect_jump_program(addresses, corrupt=corrupt)
        # Run on a bare CVA6 ISS and collect the filter's commit logs.
        logs, hart = capture_commit_logs(program, addresses)

        shadow = ShadowStackPolicy()
        forward = ForwardEdgePolicy({program.symbols["handler"]})
        composite = CompositePolicy([shadow, forward])
        verdicts = [composite.check(log) for log in logs]

        label = "corrupted jump table" if corrupt else "legitimate dispatch"
        flagged = CheckResult.VIOLATION in verdicts
        print(f"{label}:")
        print(f"  commit logs checked:        {len(logs)}")
        print(f"  shadow stack violations:    {shadow.stats.violations}")
        print(f"  forward-edge violations:    {forward.stats.violations}")
        print(f"  composite verdict:          "
              f"{'VIOLATION' if flagged else 'clean'}")
        print(f"  a0 after run:               {hart.regs.read(10):#x}")
        print()
        if corrupt:
            assert flagged and shadow.stats.violations == 0
        else:
            assert not flagged

    print("The jump-table corruption is invisible to return-address")
    print("protection but caught by the forward-edge policy - swapped in")
    print("with zero hardware change, as §II argues.")


if __name__ == "__main__":
    main()
