"""Full-system integration: address map, SoC builder, co-simulator.

Re-exports are lazy: ``repro.system.addresses`` is imported by leaf
modules (e.g. the OpenTitan top), and an eager ``from .soc import …``
here would close an import cycle back through them.
"""

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.system.addresses import AddressMap
    from repro.system.sim import SimulationReport, SystemSimulator
    from repro.system.soc import TitanCfiSoc, build_soc
    from repro.system.topology import HartPlacement, Topology

__all__ = [
    "AddressMap",
    "HartPlacement",
    "TitanCfiSoc",
    "Topology",
    "build_soc",
    "SystemSimulator",
    "SimulationReport",
]

_LAZY = {
    "AddressMap": ("repro.system.addresses", "AddressMap"),
    "HartPlacement": ("repro.system.topology", "HartPlacement"),
    "TitanCfiSoc": ("repro.system.soc", "TitanCfiSoc"),
    "Topology": ("repro.system.topology", "Topology"),
    "build_soc": ("repro.system.soc", "build_soc"),
    "SystemSimulator": ("repro.system.sim", "SystemSimulator"),
    "SimulationReport": ("repro.system.sim", "SimulationReport"),
}


def __getattr__(name: str):
    if name in _LAZY:
        import importlib

        module_name, attribute = _LAZY[name]
        return getattr(importlib.import_module(module_name), attribute)
    raise AttributeError(f"module 'repro.system' has no attribute {name!r}")
