"""Memory-system substrate: devices and address maps."""

from repro.mem.memory import Ram, Rom, SparseMemory
from repro.mem.map import MappedDevice, MemoryMap, Region

__all__ = [
    "Ram",
    "Rom",
    "SparseMemory",
    "MappedDevice",
    "MemoryMap",
    "Region",
]
