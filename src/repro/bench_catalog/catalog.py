"""The benchmark catalog (paper Tables II & III).

Workload statistics (cycles, CF count) come straight from Table III —
they are properties of the benchmarks on the reference SoC, published
by the authors, and serve as this reproduction's workload definitions.
Published slowdowns are kept as *targets* (``paper_*`` fields), never
fed into the model itself; the calibration fits burst parameters
against the IRQ column only and validates on the other two.

A ``None`` slowdown reproduces the paper's "−" (no measurable
overhead).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple


@dataclass(frozen=True)
class Benchmark:
    """One catalog entry.

    Attributes:
        name: benchmark name.
        suite: ``"embench"`` or ``"riscv-tests"``.
        cycles: unprotected runtime in cycles (Table III).
        cf_count: retired CFI-relevant instructions (Table III).
        paper_opt/paper_poll/paper_irq: published Table III slowdowns
            (queue depth 8), ``None`` for "−".
        table2: published Table II slowdowns (queue depth 1) as an
            ``(opt, poll, irq)`` tuple, or ``None`` if absent.
        dexie_slowdown: DExIE's published slowdown for Table II rows.
        fixer_slowdown: FIXER's published slowdown for Table II rows.
    """

    name: str
    suite: str
    cycles: int
    cf_count: int
    paper_opt: Optional[float] = None
    paper_poll: Optional[float] = None
    paper_irq: Optional[float] = None
    table2: Optional[Tuple[Optional[float], Optional[float], Optional[float]]] = None
    dexie_slowdown: Optional[float] = None
    fixer_slowdown: Optional[float] = None


def _b(name, suite, cycles, cf, opt=None, poll=None, irq=None,
       table2=None, dexie=None, fixer=None) -> Benchmark:
    return Benchmark(
        name=name, suite=suite, cycles=int(cycles), cf_count=int(cf),
        paper_opt=opt, paper_poll=poll, paper_irq=irq,
        table2=table2, dexie_slowdown=dexie, fixer_slowdown=fixer,
    )


#: EmBench-IoT v1.0 rows of Table III (and Table II where applicable).
EMBENCH = [
    _b("aha-mont64", "embench", 2.51e6, 1.50e1,
       table2=(None, None, None), dexie=48),
    _b("crc32", "embench", 3.49e6, 1.50e1),
    _b("cubic", "embench", 1.10e6, 2.01e4, opt=46, poll=107, irq=390),
    _b("edn", "embench", 4.23e6, 3.67e2,
       table2=(1, 1, 2), dexie=47),
    _b("huffbench", "embench", 3.49e6, 2.28e3, opt=1, poll=3, irq=11),
    _b("matmult-int", "embench", 4.69e6, 2.05e2,
       table2=(None, None, 1), dexie=48),
    _b("minver", "embench", 4.75e5, 4.50e3, opt=None, poll=7, irq=153),
    _b("nbody", "embench", 1.21e5, 4.29e3, opt=163, poll=301, irq=849),
    _b("nettle-aes", "embench", 5.20e6, 7.95e2),
    _b("nettle-sha256", "embench", 4.73e6, 8.57e3, opt=1, poll=2, irq=11),
    _b("nsichneu", "embench", 5.24e6, 1.70e1),
    _b("picojpeg", "embench", 4.97e6, 2.14e4, opt=5, poll=15, irq=58),
    _b("qrduino", "embench", 4.61e6, 4.35e3),
    _b("sglib-combined", "embench", 3.67e6, 2.62e4, opt=9, poll=32, irq=142),
    _b("slre", "embench", 3.57e6, 6.69e4, opt=38, poll=110, irq=401),
    _b("st", "embench", 1.47e5, 2.31e2, opt=None, poll=None, irq=2),
    _b("statemate", "embench", 3.22e6, 2.75e4, opt=None, poll=None, irq=129),
    _b("ud", "embench", 1.87e6, 2.98e3,
       table2=(12, 18, 43), dexie=48),
    _b("wikisort", "embench", 4.38e5, 7.69e3, opt=94, poll=158, irq=418),
]

#: RISC-V-Tests rows of Table III (and Table II where applicable).
RISCV_TESTS = [
    _b("dhrystone", "riscv-tests", 4.57e5, 2.25e4, opt=260, poll=452, irq=1215,
       table2=(360, 553, 1318), fixer=2),
    _b("median", "riscv-tests", 2.53e4, 1.10e1,
       table2=(3, 5, 12), fixer=2),
    _b("memcpy", "riscv-tests", 1.20e5, 1.10e1),
    _b("mm", "riscv-tests", 1.41e6, 2.33e5, opt=1108, poll=1752, irq=4311),
    _b("mt-matmul", "riscv-tests", 5.76e4, 2.38e2, opt=11, poll=22, irq=65),
    _b("mt-memcpy", "riscv-tests", 4.08e5, 1.80e1),
    _b("mt-vvadd", "riscv-tests", 1.48e5, 3.30e1),
    _b("multiply", "riscv-tests", 3.72e4, 9.00e0,
       table2=(2, 3, 6), fixer=2),
    _b("pmp", "riscv-tests", 9.01e5, 5.90e1),
    _b("qsort", "riscv-tests", 2.68e5, 1.10e1,
       table2=(None, None, 1), fixer=2),
    _b("rsort", "riscv-tests", 3.32e5, 1.10e1,
       table2=(None, None, 1), fixer=2),
    _b("spmv", "riscv-tests", 1.67e5, 1.10e1),
    _b("towers", "riscv-tests", 2.01e4, 9.00e0),
]

ALL_BENCHMARKS = EMBENCH + RISCV_TESTS

#: Benchmarks appearing in Table II (queue depth 1 comparison).
TABLE2_BENCHMARKS = [b for b in ALL_BENCHMARKS if b.table2 is not None]

_BY_NAME: Dict[str, Benchmark] = {b.name: b for b in ALL_BENCHMARKS}


def benchmark(name: str) -> Benchmark:
    """Look up a catalog entry by name."""
    if name not in _BY_NAME:
        raise KeyError(f"unknown benchmark {name!r}")
    return _BY_NAME[name]
