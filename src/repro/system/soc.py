"""The full reference SoC with TitanCFI (paper Fig. 1, assembled).

``build_soc`` wires every component the paper draws: CVA6 with the CFI
stage tapped into its commit stage, the AXI host crossbar with an IOPMP
guard on the CFI mailbox, both mailboxes, and the OpenTitan RoT behind
the TL2AXI bridge with its PLIC listening to the CFI doorbell.

A :class:`~repro.system.topology.Topology` scales the application side:
N CVA6-class harts, each with a private DRAM segment and its own commit
pipeline + CFI stage, all sharing the single CFI mailbox through a
round-robin :class:`~repro.soc.mailbox.DoorbellArbiter` in front of the
one Ibex monitor.  Every SoC has the arbiter, a one-hart SoC a one-port
one: its idle grant is combinational, so a lone writer sees the plain
mailbox timing.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.config import TitanCfiConfig
from repro.core.stage import CfiStage
from repro.cva6.commit import CommitStage
from repro.errors import UnknownHartError
from repro.hart.core import Hart
from repro.hart.ports import MapPort
from repro.hart.timing import Cva6Timing
from repro.isa.asm import Program
from repro.mem.map import MemoryMap
from repro.mem.memory import Ram
from repro.opentitan.rot import OpenTitan, RotConfig
from repro.soc.axi import AxiTimings, AxiXbar
from repro.soc.mailbox import CfiMailbox, DoorbellArbiter, Mailbox
from repro.soc.pmp import IoPmp
from repro.system.addresses import CFI_IRQ_SOURCE, SCMI_IRQ_SOURCE, AddressMap
from repro.system.topology import Topology


class TitanCfiSoc:
    """Handle to every component of a built system.

    The application side is plural — ``harts[i]`` / ``commits[i]`` /
    ``cfi_stages[i]`` for topology hart ``i`` — with the single-hart
    aliases ``cva6`` / ``commit`` / ``cfi_stage`` bound to hart 0.
    """

    def __init__(
        self,
        addresses: AddressMap,
        topology: Topology,
        host_map: MemoryMap,
        axi: AxiXbar,
        pmp: IoPmp,
        dram: Ram,
        cfi_mailbox: CfiMailbox,
        scmi_mailbox: Mailbox,
        rot: OpenTitan,
        harts: List[Hart],
        cfi_stages: List[Optional[CfiStage]],
        commits: List[CommitStage],
        doorbell_arbiter: DoorbellArbiter,
    ):
        self.addresses = addresses
        self.topology = topology
        self.host_map = host_map
        self.axi = axi
        self.pmp = pmp
        self.dram = dram
        self.cfi_mailbox = cfi_mailbox
        self.scmi_mailbox = scmi_mailbox
        self.rot = rot
        self.harts = harts
        self.cfi_stages = cfi_stages
        self.commits = commits
        self.doorbell_arbiter = doorbell_arbiter
        # Hart-0 aliases: the entire single-hart API surface.
        self.cva6 = harts[0]
        self.cfi_stage = cfi_stages[0]
        self.commit = commits[0]
        #: Python policy agent serving the CFI mailbox in place of the
        #: Ibex firmware, if one is mounted (see
        #: :func:`repro.policyhost.mount_policy_host`).  The
        #: co-simulator schedules it instead of the RoT core.
        self.policy_host = None
        #: Fault controller for the run, if one is attached (see
        #: :func:`repro.faults.attach_faults`).  ``None`` means every
        #: hook in the transport/monitor path is a no-op.
        self.faults = None

    @property
    def n_harts(self) -> int:
        """Number of application harts (the Ibex monitor not included)."""
        return len(self.harts)

    def load_host_program(self, program: Program, hart_id: int = 0) -> None:
        """Load a program image and point one application hart at it."""
        if not 0 <= hart_id < len(self.harts):
            raise UnknownHartError(hart_id, len(self.harts))
        self.host_map.write_bytes(program.base, program.data)
        self.harts[hart_id].pc = program.base

    def load_firmware(self, image: bytes) -> None:
        """Load the CFI firmware into the RoT boot ROM."""
        self.rot.load_firmware(image)


def build_soc(
    cfi_config: Optional[TitanCfiConfig] = None,
    fabric: str = "standard",
    addresses: Optional[AddressMap] = None,
    protect_mailbox: bool = True,
    with_cfi: bool = True,
    wake_cycles: int = 45,
    topology: Optional[Topology] = None,
) -> TitanCfiSoc:
    """Assemble the reference SoC.

    Args:
        cfi_config: CFI stage parameters (defaults per the paper).
        fabric: ``"standard"`` or ``"optimized"`` RoT interconnect.
        addresses: alternative address map.
        protect_mailbox: install the IOPMP rule restricting the CFI
            mailbox to the CFI stage and the RoT (paper §VI).
        with_cfi: when False, builds the unprotected baseline platform
            (used to measure raw execution cycles).
        wake_cycles: Ibex doorbell→wake latency.
        topology: application-side layout; ``None`` builds the historic
            single protected hart.
    """
    amap = addresses or AddressMap()
    topo = topology or Topology()
    config = cfi_config or TitanCfiConfig(mailbox_base=amap.cfi_mailbox_base)
    placements = topo.placements(amap)

    host_map = MemoryMap("host")
    dram_base, dram_end = topo.dram_extent(amap)
    dram = Ram(dram_end - dram_base, "dram")
    cfi_mailbox = CfiMailbox()
    scmi_mailbox = Mailbox(name="scmi-mailbox")
    host_map.add(dram_base, dram, latency=1, tag="dram", name="dram")
    host_map.add(amap.cfi_mailbox_base, cfi_mailbox, latency=1,
                 tag="cfi-mailbox", name="cfi-mailbox")
    host_map.add(amap.scmi_mailbox_base, scmi_mailbox, latency=1,
                 tag="scmi-mailbox", name="scmi-mailbox")

    pmp = IoPmp()
    if protect_mailbox:
        pmp.protect(
            amap.cfi_mailbox_base,
            cfi_mailbox.size,
            {"cfi-stage", "opentitan"},
            name="cfi-mailbox-guard",
        )

    axi = AxiXbar(host_map, AxiTimings(), pmp=pmp, name="host-axi")

    rot = OpenTitan(axi, addresses=amap,
                    config=RotConfig(fabric=fabric, wake_cycles=wake_cycles))
    # Doorbell level wire → RoT PLIC source (paper Fig. 1 "doorbell-cfi").
    cfi_mailbox.doorbell_line = (
        lambda level: rot.plic.set_level(CFI_IRQ_SOURCE, level)
    )
    scmi_mailbox.doorbell_line = (
        lambda level: rot.plic.set_level(SCMI_IRQ_SOURCE, level)
    )

    arbiter = DoorbellArbiter(topo.n_harts)

    harts: List[Hart] = []
    cfi_stages: List[Optional[CfiStage]] = []
    commits: List[CommitStage] = []
    for placement in placements:
        name = f"cva6.{placement.hart_id}" if topo.n_harts > 1 else "cva6"
        hart = Hart(
            MapPort(host_map),
            Cva6Timing(),
            xlen=64,
            reset_pc=placement.dram_base,
            name=name,
        )
        stage = (
            CfiStage(axi, cfi_mailbox, arbiter, config,
                     hart_id=placement.hart_id)
            if with_cfi
            else None
        )
        harts.append(hart)
        cfi_stages.append(stage)
        commits.append(CommitStage(hart, stage))

    return TitanCfiSoc(
        addresses=amap,
        topology=topo,
        host_map=host_map,
        axi=axi,
        pmp=pmp,
        dram=dram,
        cfi_mailbox=cfi_mailbox,
        scmi_mailbox=scmi_mailbox,
        rot=rot,
        harts=harts,
        cfi_stages=cfi_stages,
        commits=commits,
        doorbell_arbiter=arbiter,
    )
