"""Cryptographic accelerators: the OpenTitan HMAC/SHA-256 block.

OpenTitan's crypto blocks "efficiently execute compute-intensive
security primitives, such as ... hash calculation" (paper §III-B);
TitanCFI uses them to authenticate shadow-stack pages spilled to
untrusted SoC memory (§VI).  The device model computes its digests
with the standard library and charges the block's cycles per
operation.
"""

from repro.opentitan.crypto.accel import HmacAccelerator

__all__ = ["HmacAccelerator"]
