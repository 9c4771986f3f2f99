"""SCMI-style mailboxes, including the TitanCFI CFI mailbox.

The reference SoC mediates host↔RoT communication through an SCMI
mailbox: general-purpose data registers plus *Doorbell* and *Completion*
registers that raise interrupts toward Ibex and CVA6 respectively
(paper §III-B).

TitanCFI adds a second, CFI-specific mailbox (§IV-A) with two deltas:

* the data registers are parametrised to hold one full commit log
  (224 bits → four 64-bit registers), and
* the completion register is wired *directly to the CVA6 commit stage*
  (the log-writer FSM), not to the host PLIC.

Both variants share :class:`Mailbox`; the wiring difference lives in the
``on_doorbell`` / ``on_completion`` callbacks the SoC builder installs.
Per the paper's firmware protocol (§IV-C), the verdict of a CFI check is
written into the *first* data register before completion is signalled.

Handshake timing contract
-------------------------

Two agents can serve the CFI mailbox — the RV32 firmware on the Ibex
ISS and a Python :class:`repro.policyhost.PolicyHost` — and the log
writer must not be able to tell them apart.  Every agent must honor:

1. **One message in flight.**  A new payload may be deposited only
   while :attr:`Mailbox.ready` (doorbell clear); the writer enforces
   this by waiting for the ready signal in its ``IDLE`` state.
2. **Payload before doorbell.**  All data registers are written before
   the doorbell is rung; the agent may read them at any time between
   the ring and its completion write.
3. **Verdict before completion.**  The verdict lands in data[0]
   *before* (or atomically with — :meth:`Mailbox.respond`) the
   completion register: the writer reads data[0] only after observing
   completion, so nothing may observe the window between the two.
4. **Completion clears the doorbell** (:class:`CfiMailbox` does this
   in hardware) — the mailbox is ready for the next message on the
   completion cycle itself.
5. **Same-cycle observability.**  Within one global cycle the agent
   acts *before* the log-writer FSM ticks (the co-simulator schedules
   the RoT core / policy host ahead of the CFI stage), so a completion
   written in cycle T is observed by the writer's ``WAIT`` state in
   cycle T — the cycle accounting both agents are calibrated against.
6. **Level-sensitive doorbell wire.**  The doorbell drives a PLIC
   level (:attr:`Mailbox.doorbell_line`); it stays asserted until the
   agent completes the check, so a sleeping Ibex cannot lose a wake.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.errors import AccessFault, ConfigError, ProtocolError, check_int


@dataclass(frozen=True)
class MailboxLayout:
    """Register file geometry of a mailbox.

    Attributes:
        data_words: number of general-purpose data registers.
        word_bytes: width of each data register in bytes.
    """

    data_words: int = 4
    word_bytes: int = 8

    @property
    def data_bytes(self) -> int:
        """Total payload capacity in bytes."""
        return self.data_words * self.word_bytes

    @property
    def doorbell_offset(self) -> int:
        """Byte offset of the doorbell register."""
        return self.data_bytes

    @property
    def completion_offset(self) -> int:
        """Byte offset of the completion register."""
        return self.data_bytes + self.word_bytes

    @property
    def status_offset(self) -> int:
        """Byte offset of the read-only status register."""
        return self.data_bytes + 2 * self.word_bytes

    @property
    def total_bytes(self) -> int:
        """Device footprint in bytes."""
        return self.data_bytes + 3 * self.word_bytes


class Mailbox:
    """Memory-mapped mailbox device (device-protocol compliant).

    Writing a non-zero value to the doorbell (completion) register
    latches the corresponding pending flag and fires the callback;
    writing zero clears the flag.  The status register exposes both
    flags read-only: bit 0 = doorbell, bit 1 = completion.
    """

    def __init__(
        self,
        layout: Optional[MailboxLayout] = None,
        name: str = "mailbox",
        on_doorbell: Optional[Callable[[], None]] = None,
        on_completion: Optional[Callable[[], None]] = None,
    ):
        self.layout = layout or MailboxLayout()
        self.name = name
        self.size = self.layout.total_bytes
        # Register offsets flattened from the layout: the data path is
        # exercised once per beat of every CFI handshake, and property
        # hops there are measurable.
        self._data_bytes = self.layout.data_bytes
        self._doorbell_offset = self.layout.doorbell_offset
        self._completion_offset = self.layout.completion_offset
        self._status_offset = self.layout.status_offset
        self.on_doorbell = on_doorbell
        self.on_completion = on_completion
        #: Optional level wire driven on every doorbell transition — the
        #: SoC builder connects this to a PLIC source's level input.
        self.doorbell_line: Optional[Callable[[bool], None]] = None
        self._data = bytearray(self.layout.data_bytes)
        self.doorbell_pending = False
        self.completion_pending = False
        self.doorbell_count = 0
        self.completion_count = 0
        #: Fault controller observability hook (:mod:`repro.faults`);
        #: purely a counter tap — never alters the handshake.
        self.faults = None

    # -- device protocol -----------------------------------------------------

    def read(self, offset: int, size: int) -> int:
        """Register-file read."""
        data_bytes = self._data_bytes
        if 0 <= offset < data_bytes:
            if offset + size > data_bytes:
                raise AccessFault(offset, "read", f"{self.name}: read crosses data file")
            return int.from_bytes(self._data[offset : offset + size], "little")
        if offset == self._doorbell_offset:
            return int(self.doorbell_pending)
        if offset == self._completion_offset:
            return int(self.completion_pending)
        if offset == self._status_offset:
            return int(self.doorbell_pending) | (int(self.completion_pending) << 1)
        raise AccessFault(offset, "read", f"{self.name}: no register at offset {offset:#x}")

    def write(self, offset: int, size: int, value: int) -> None:
        """Register-file write."""
        data_bytes = self._data_bytes
        if 0 <= offset < data_bytes:
            if offset + size > data_bytes:
                raise AccessFault(offset, "write", f"{self.name}: write crosses data file")
            self._data[offset : offset + size] = (value & ((1 << (size * 8)) - 1)).to_bytes(
                size, "little"
            )
            return
        if offset == self._doorbell_offset:
            self._set_doorbell(bool(value))
            return
        if offset == self._completion_offset:
            self._set_completion(bool(value))
            return
        if offset == self._status_offset:
            raise AccessFault(offset, "write", f"{self.name}: status register is read-only")
        raise AccessFault(offset, "write", f"{self.name}: no register at offset {offset:#x}")

    # -- flag handling ---------------------------------------------------------

    def _set_doorbell(self, level: bool) -> None:
        if level:
            if self.doorbell_pending:
                raise ProtocolError(f"{self.name}: doorbell rung while already pending")
            self.doorbell_pending = True
            self.doorbell_count += 1
            if self.faults is not None:
                self.faults.note_doorbell()
            if self.on_doorbell is not None:
                self.on_doorbell()
        else:
            self.doorbell_pending = False
        if self.doorbell_line is not None:
            self.doorbell_line(self.doorbell_pending)

    def _set_completion(self, level: bool) -> None:
        if level:
            self.completion_pending = True
            self.completion_count += 1
            if self.faults is not None:
                self.faults.note_completion()
            if self.on_completion is not None:
                self.on_completion()
        else:
            self.completion_pending = False

    # -- high-level host/firmware helpers ---------------------------------------

    @property
    def ready(self) -> bool:
        """True when a new message may be deposited (no handshake in flight)."""
        return not self.doorbell_pending

    def deposit(self, payload: bytes) -> None:
        """Host-side: write ``payload`` into the data file and ring the bell.

        This is the *zero-cost functional* path used by unit tests; the
        log-writer FSM performs the same sequence through timed AXI
        transactions instead.
        """
        if len(payload) > self.layout.data_bytes:
            raise ConfigError(
                f"{self.name}: payload of {len(payload)} bytes exceeds "
                f"{self.layout.data_bytes}-byte data file"
            )
        if not self.ready:
            raise ProtocolError(f"{self.name}: deposit while previous message pending")
        self.completion_pending = False
        self._data[: len(payload)] = payload
        self._set_doorbell(True)

    def collect(self) -> bytes:
        """Firmware-side: read the full data file (does not clear flags)."""
        return bytes(self._data)

    def respond(self, verdict: int) -> None:
        """Firmware-side: write verdict to data[0], clear doorbell, complete.

        Mirrors the §IV-C exit sequence: result into the first mailbox
        entry, then the completion register.
        """
        word = self.layout.word_bytes
        self._data[:word] = (verdict & ((1 << (word * 8)) - 1)).to_bytes(word, "little")
        self._set_doorbell(False)
        self._set_completion(True)

    def result(self) -> int:
        """Host-side: read the verdict from the first data register."""
        word = self.layout.word_bytes
        return int.from_bytes(self._data[:word], "little")


class CfiMailbox(Mailbox):
    """The TitanCFI mailbox: data file sized for one 224-bit commit log.

    Four 64-bit registers give 256 bits of payload — the smallest
    multiple of the 64-bit bus width holding a commit log (§IV-B3).
    """

    #: Commit-log payload width in bits (paper §IV-B1).
    COMMIT_LOG_BITS = 224

    def __init__(
        self,
        name: str = "cfi-mailbox",
        on_doorbell: Optional[Callable[[], None]] = None,
        on_completion: Optional[Callable[[], None]] = None,
    ):
        layout = MailboxLayout(data_words=4, word_bytes=8)
        if layout.data_bytes * 8 < self.COMMIT_LOG_BITS:
            raise ConfigError("CFI mailbox data file cannot hold a commit log")
        super().__init__(
            layout=layout,
            name=name,
            on_doorbell=on_doorbell,
            on_completion=on_completion,
        )

    def _set_completion(self, level: bool) -> None:
        # CFI-specific handshake assist: asserting completion also clears
        # the doorbell in hardware.  This lets the firmware finish a check
        # with exactly two SoC writes (verdict + completion), which is how
        # the paper's firmware reaches 4 SoC accesses per check (Table I).
        if level:
            self._set_doorbell(False)
        super()._set_completion(level)


class DoorbellArbiter:
    """Round-robin grant of the shared CFI mailbox to N log writers.

    In the multi-hart SoC every application hart has its own commit
    pipeline and log-writer FSM, but they share the one CFI mailbox in
    front of the RoT monitor.  Hardware-wise this is a doorbell arbiter:
    a writer *requests* the channel when it has a log to send, holds the
    *grant* for the whole handshake (payload + doorbell + completion +
    verdict read-back), and releases it when the check finishes.

    Timing/determinism contract (asserted by the three-engine
    equivalence suites):

    * **Combinational grant when idle.**  ``acquire`` from a writer
      while no grant is outstanding succeeds on the same cycle — an
      uncontended multi-hart writer sees exactly the single-hart
      mailbox timing.
    * **Round-robin rotation under contention.**  While a grant is
      held, later ``acquire`` calls register level-sensitive requests.
      ``release`` hands the grant to the next requesting port after
      the releasing one, scanning circularly — so sustained contention
      alternates fairly and no port starves.
    * **Deterministic same-cycle ordering.**  Components tick in port
      order within a cycle, so when several writers first request on
      the same cycle the lowest port wins the idle grant and the rest
      queue; replaying the same tick order reproduces the same grants
      in every engine.
    """

    def __init__(self, n_ports: int):
        check_int("doorbell arbiter ports", n_ports, 1)
        self.n_ports = n_ports
        #: Port currently holding the grant, or ``None``.
        self.owner: Optional[int] = None
        self._requests: List[bool] = [False] * n_ports
        #: Grant counters per port (fairness observability).
        self.grants: List[int] = [0] * n_ports
        self._quarantined: List[bool] = [False] * n_ports
        #: Fast guard for the writers' per-tick gating check: stays
        #: False (one attribute read) until the first quarantine.
        self.quarantine_active: bool = False
        #: Monotonic count of ownership transitions (grant, release,
        #: forced release).  The monitor's hold watchdog samples it: a
        #: frozen count across the watchdog budget means the owner is
        #: squatting on the channel.
        self.change_count: int = 0

    def _check_port(self, port: int) -> None:
        if not 0 <= port < self.n_ports:
            raise ProtocolError(
                f"doorbell arbiter: port {port} out of range 0..{self.n_ports - 1}"
            )

    def acquire(self, port: int) -> bool:
        """Request the channel for ``port``; True when granted.

        Idempotent per cycle: a granted owner re-acquiring keeps its
        grant, an ungranted requester keeps its request pending.
        A quarantined port is refused outright and registers nothing.
        """
        self._check_port(port)
        if self._quarantined[port]:
            return False
        if self.owner == port:
            return True
        if self.owner is None:
            # Idle channel: combinational grant.  ``release`` hands the
            # grant over before clearing ownership, so an idle channel
            # implies no queued requests to arbitrate against.
            self.owner = port
            self.grants[port] += 1
            self._requests[port] = False
            self.change_count += 1
            return True
        self._requests[port] = True
        return False

    def withdraw(self, port: int) -> None:
        """Drop a pending request (the writer no longer has traffic)."""
        self._check_port(port)
        self._requests[port] = False

    def release(self, port: int) -> None:
        """Finish ``port``'s handshake and re-arbitrate.

        The grant rotates to the next requesting port after the
        releasing one (round robin); with no requests pending the
        channel goes idle.  A port quarantined mid-handshake may still
        release — the in-flight handshake finishes cleanly; only new
        acquires are gated.
        """
        self._check_port(port)
        if self.owner != port:
            raise ProtocolError(
                f"doorbell arbiter: port {port} released a grant owned by "
                f"{self.owner!r}"
            )
        for step in range(1, self.n_ports + 1):
            nxt = (port + step) % self.n_ports
            if self._requests[nxt]:
                self.owner = nxt
                self.grants[nxt] += 1
                self._requests[nxt] = False
                self.change_count += 1
                return
        self.owner = None
        self.change_count += 1

    def requesting(self, port: int) -> bool:
        self._check_port(port)
        return self._requests[port]

    def quarantined(self, port: int) -> bool:
        self._check_port(port)
        return self._quarantined[port]

    def quarantine(self, port: int) -> None:
        """Gate ``port`` off the channel: its pending request is dropped
        and every future ``acquire`` is refused.  A grant the port
        already holds is untouched (the in-flight handshake completes;
        a squatting owner needs :meth:`force_release`)."""
        self._check_port(port)
        self._quarantined[port] = True
        self._requests[port] = False
        self.quarantine_active = True

    def force_release(self, port: int) -> None:
        """Revoke ``port``'s grant without its cooperation (the
        monitor's hold-watchdog action) and re-arbitrate round-robin."""
        self._check_port(port)
        if self.owner != port:
            raise ProtocolError(
                f"doorbell arbiter: force_release of port {port} but the "
                f"grant is owned by {self.owner!r}"
            )
        for step in range(1, self.n_ports + 1):
            nxt = (port + step) % self.n_ports
            if self._requests[nxt]:
                self.owner = nxt
                self.grants[nxt] += 1
                self._requests[nxt] = False
                self.change_count += 1
                return
        self.owner = None
        self.change_count += 1


#: Verdict values written into data[0] by the CFI firmware (§IV-C).
VERDICT_OK = 0
VERDICT_VIOLATION = 1
