"""Generated engine differential: busy and batched agree on drawn cells.

The hand-written equivalence suites pin registered victims and fixed
seeds.  Here hypothesis draws the cosim cell itself — hart count,
victims (synthesized ones too on a single hart), mailbox agent, queue
depth, blocking, lossy queues, firmware variant, stagger and seed — and
the two engines must produce the identical campaign result row.
"""

from hypothesis import assume, given, settings, strategies as st

from repro.campaign.runner import run_scenario
from repro.campaign.spec import VICTIMS, Scenario
from repro.errors import ConfigError
from repro.system.sim import MODE_BATCHED, MODE_BUSY

#: Single-hart cells take any victim; multi-hart cells only the
#: hand-written corpus (``Scenario`` rejects synthesized victims there),
#: so a synthesized victim fixes the cell at one hart.
ANY_VICTIM = sorted(VICTIMS)
CORPUS = sorted(name for name, spec in VICTIMS.items() if not spec.synthetic)


@st.composite
def cosim_scenarios(draw):
    victim = draw(st.sampled_from(ANY_VICTIM))
    n_harts = 1
    if not VICTIMS[victim].synthetic:
        n_harts = draw(st.integers(1, 8))
    hart_victims = tuple(draw(st.lists(
        st.sampled_from(CORPUS), min_size=n_harts - 1,
        max_size=n_harts - 1)))
    try:
        return Scenario(
            victim=victim,
            backend="cosim",
            n_harts=n_harts,
            hart_victims=hart_victims,
            policy_backend=draw(st.sampled_from(("auto", "host"))),
            queue_depth=draw(st.sampled_from((1, 2, 8))),
            blocking=draw(st.booleans()),
            lossy=draw(st.booleans()),
            firmware=draw(st.sampled_from(("irq", "polling"))),
            stagger=draw(st.sampled_from((0, 300))),
            seed=draw(st.integers(1, 10_000)),
        )
    except ConfigError:
        assume(False)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(cosim_scenarios())
def test_busy_and_batched_rows_identical(scenario):
    busy = run_scenario(scenario, sim_mode=MODE_BUSY)
    assert busy["status"] == "ok", busy
    assert run_scenario(scenario, sim_mode=MODE_BATCHED) == busy
