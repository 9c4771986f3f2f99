"""``expand_grid`` keeps exactly the cells ``Scenario`` accepts.

Property: for any small grid, the names ``expand_grid`` returns equal
the names of every product combination that ``Scenario(**combo)``
constructs without error, first occurrence kept.  Axes are drawn from
small pools that reach every cross-field rule: synthesized victims,
backends, policies, mailbox agents, hart counts, fault plans of each
family, hart ids in and out of range, and the cosim-only knobs.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.spec import Scenario, expand_grid
from repro.errors import ConfigError

POOLS = {
    "victim": ["rop", "benign", "deep-recursion", "synth-rop"],
    "backend": ["reference", "cosim"],
    "policy": ["shadow-stack", "composite", "coarse", "none"],
    "policy_backend": ["auto", "firmware", "host"],
    "n_harts": [1, 2, 4],
    "fault_plan": [None, "drop-first", "stall-late", "xhart-spoof"],
    "fault_hart": [None, 0, 1, 3],
    "attack_hart": [0, 1, 3],
    "defense": [False, True],
    "lossy": [False, True],
    "blocking": [False, True],
    "stagger": [0, 750],
}


@st.composite
def grids(draw):
    """A grid over a random subset of the pools, at most two values per
    axis; ``victim`` is always present."""
    axes = {}
    for name, pool in POOLS.items():
        if name != "victim" and not draw(st.booleans()):
            continue
        axes[name] = draw(st.lists(st.sampled_from(pool), min_size=1,
                                   max_size=2, unique=True))
    return axes


def accepted_names(axes):
    """Names of every combination ``Scenario`` accepts, in product
    order, first occurrence kept."""
    names = []
    for combo in itertools.product(*axes.values()):
        try:
            name = Scenario(**dict(zip(axes, combo))).name
        except ConfigError:
            continue
        if name not in names:
            names.append(name)
    return names


@settings(max_examples=80, derandomize=True, deadline=None)
@given(grids())
def test_grid_keeps_exactly_the_accepted_cells(axes):
    assert [c.name for c in expand_grid(**axes)] == accepted_names(axes)
