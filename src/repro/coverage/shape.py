"""Deterministic coverage shapes over the synthesis IR.

The feedback signal of the coverage-guided loop: :func:`shape_vector`
distils a synthesized victim into a set of discrete **coverage points**
— strings like ``call-depth:max:3`` or ``ngram3:cCr`` — drawn from the
model's planned event stream (:func:`repro.synth.ir.plan_events`), its
static structure, and the :mod:`repro.isa.cflow` scan of the emitted
image.  Two programs share a point exactly when they exercise the same
structural feature, so the set difference against a global
:class:`CoverageMap` is the loop's novelty predicate, AFL-style.

Everything here is a pure function of ``(model, image)``: no engine,
clock or filesystem state enters, which is what makes vectors identical
across the co-simulator engines and across process restarts
(asserted by ``tests/coverage/test_shape.py``).

Axes (the prefix before the first ``:`` of every point):

* ``call-depth`` — maximum call-stack depth of the planned stream, and
  the bucketed stream length: the *dynamic* profile.
* ``fanout`` — bucketed count of distinct legitimate indirect-transfer
  targets (the forward-edge label-set size a policy must discriminate).
* ``loop-nesting`` — maximum static loop nesting and bucketed loop
  count.
* ``recursion`` / ``tailcall`` — the PR-10 IR growth surfaced as first-
  class axes: bounded-recursion depths present, tail-call site count.
* ``attack-context`` — the planted attack's structural surroundings
  (kind, host function class, loop nesting at the site, stream position
  bucket): *where* a gadget fires is what separates policies of equal
  nominal strength.
* ``ngram2``/``ngram3`` — sliding windows over the planned event stream
  tokenised as ``c``/``C``/``r``/``j`` (direct call, indirect call,
  return, indirect jump): the event-stream n-grams.
* ``cfkind`` — bucketed static site counts per
  :class:`repro.isa.cflow.CfKind` from the linear sweep of the emitted
  image, grounding the vector in the encodings actually present.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.isa.cflow import cfi_sites
from repro.synth.ir import PlanEvent, model_ops, plan_events

#: Schema stamp of serialized vectors and maps.
SHAPE_SCHEMA = 1

#: Axis names, in rendering order.
AXES = (
    "call-depth",
    "fanout",
    "loop-nesting",
    "recursion",
    "tailcall",
    "attack-context",
    "ngram2",
    "ngram3",
    "cfkind",
)

#: Event-kind tokens for the n-gram axes.
_TOKENS = {
    ("call", True): "C",
    ("call", False): "c",
    ("return", True): "r",
    ("ijump", True): "j",
}


def _bucket(n: int) -> str:
    """Logarithmic count bucket: exact to 4, then coarsening bands.

    Keeps every axis's point space finite so the map saturates instead
    of growing without bound on long fuzz runs.
    """
    if n <= 4:
        return str(n)
    if n <= 8:
        return "5-8"
    if n <= 16:
        return "9-16"
    if n <= 32:
        return "17-32"
    return "33+"


def _token(event: PlanEvent) -> str:
    return _TOKENS.get((event.kind, event.indirect), "?")


def _depth_profile(events: Sequence[PlanEvent]) -> Tuple[int, int]:
    """(max call depth, stream length) of a planned event stream."""
    depth = 0
    max_depth = 0
    for event in events:
        if event.kind == "call":
            depth += 1
            max_depth = max(max_depth, depth)
        elif event.kind == "return":
            depth = max(0, depth - 1)
    return max_depth, len(events)


def _loop_stats(model: dict) -> Tuple[int, int]:
    """(max static loop nesting, total loop count) of a model."""
    max_nest = 0
    count = 0

    def walk(body: List[dict], nest: int) -> None:
        nonlocal max_nest, count
        for op in body:
            if op["op"] == "loop":
                count += 1
                max_nest = max(max_nest, nest + 1)
                walk(op["body"], nest + 1)

    for function in model["functions"]:
        walk(function["body"], 0)
    return max_nest, count


def _attack_context(model: dict) -> List[str]:
    """Points describing the planted attack's structural surroundings."""
    attack = model.get("attack")
    if not attack:
        return ["attack-context:none"]
    kind = attack["kind"]
    points = [f"attack-context:{kind}"]
    if kind == "rop":
        points.append(f"attack-context:{kind}:victim-leaf")
        victim = next(f for f in model["functions"]
                      if f["name"] == attack["victim"])
        if any(op["op"] in ("call", "hijack", "rtc", "recurse")
               for op in _walk(victim["body"])):
            points[-1] = f"attack-context:{kind}:victim-nonleaf"
        return points

    # The remaining kinds anchor on an op uid planted somewhere in the
    # body tree: record the host function class and loop nesting there.
    uid = attack["uid"]
    for function in model["functions"]:
        placement = _find(function["body"], uid, 0)
        if placement is None:
            continue
        nest = placement
        host = "main" if function["name"] == "main" else "fn"
        points.append(f"attack-context:{kind}:host-{host}")
        points.append(f"attack-context:{kind}:loop-nest-{_bucket(nest)}")
    return points


def _walk(body: List[dict]):
    for op in body:
        yield op
        if op["op"] == "loop":
            yield from _walk(op["body"])


def _find(body: List[dict], uid: int, nest: int) -> Optional[int]:
    """Loop-nesting level of the op carrying ``uid``, or ``None``."""
    for op in body:
        if op["uid"] == uid:
            return nest
        if op["op"] == "loop":
            found = _find(op["body"], uid, nest + 1)
            if found is not None:
                return found
    return None


@dataclass(frozen=True)
class ShapeVector:
    """One scenario's coverage shape: a sorted set of coverage points."""

    points: Tuple[str, ...]

    def __post_init__(self):
        ordered = tuple(sorted(set(self.points)))
        if ordered != self.points:
            object.__setattr__(self, "points", ordered)

    @property
    def digest(self) -> str:
        """Stable 16-hex content address of the point set."""
        payload = json.dumps(list(self.points), separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def axes(self) -> Dict[str, Tuple[str, ...]]:
        """Points grouped by axis, for rendering and per-axis queries."""
        grouped: Dict[str, List[str]] = {}
        for point in self.points:
            grouped.setdefault(point.split(":", 1)[0], []).append(point)
        return {axis: tuple(points) for axis, points in grouped.items()}

    def differing_axes(self, other: "ShapeVector") -> Tuple[str, ...]:
        """Axes on which ``self`` and ``other`` disagree (sorted)."""
        mine, theirs = self.axes(), other.axes()
        return tuple(sorted(
            axis for axis in set(mine) | set(theirs)
            if mine.get(axis) != theirs.get(axis)
        ))

    def to_json(self) -> dict:
        return {"schema": SHAPE_SCHEMA, "points": list(self.points)}

    @classmethod
    def from_json(cls, payload: dict) -> "ShapeVector":
        if payload.get("schema") != SHAPE_SCHEMA:
            raise ConfigError(
                f"unsupported shape schema {payload.get('schema')!r}"
            )
        return cls(points=tuple(payload["points"]))


def shape_vector(model: dict, program=None, base: Optional[int] = None) -> ShapeVector:
    """Compute a model's coverage shape.

    ``program`` is the emitted image for the ``cfkind`` axis; when
    omitted it is assembled at ``base`` (default: the platform DRAM
    base), so callers that already hold a
    :class:`~repro.synth.SynthBundle` avoid re-assembly.
    """
    if program is None:
        from repro.synth.verify import assemble_model

        program = assemble_model(model, base=base)

    events = plan_events(model)
    points: List[str] = []

    max_depth, stream_len = _depth_profile(events)
    points.append(f"call-depth:max:{_bucket(max_depth)}")
    points.append(f"call-depth:events:{_bucket(stream_len)}")

    from repro.synth.ir import _indirect_targets

    points.append(f"fanout:{_bucket(len(_indirect_targets(model)))}")

    max_nest, loops = _loop_stats(model)
    points.append(f"loop-nesting:max:{max_nest}")
    points.append(f"loop-nesting:count:{_bucket(loops)}")

    depths = sorted({op["depth"] for op in model_ops(model)
                     if op["op"] == "recurse"})
    points.append(f"recursion:depths:{'-'.join(map(str, depths)) or 'none'}")
    tails = sum(1 for op in model_ops(model) if op["op"] == "tailcall")
    points.append(f"tailcall:{_bucket(tails)}")

    points.extend(_attack_context(model))

    tokens = "".join(_token(event) for event in events)
    points.extend(f"ngram2:{tokens[i:i + 2]}" for i in range(len(tokens) - 1))
    points.extend(f"ngram3:{tokens[i:i + 3]}" for i in range(len(tokens) - 2))

    kinds: Dict[str, int] = {}
    for site in cfi_sites(program):
        kinds[site.kind.value] = kinds.get(site.kind.value, 0) + 1
    for kind_name in sorted(kinds):
        points.append(f"cfkind:{kind_name}:{_bucket(kinds[kind_name])}")

    return ShapeVector(points=tuple(points))


class CoverageMap:
    """Global point-frequency map: the loop's accumulated feedback.

    ``merge`` folds a vector in and reports what was new; ``novelty``
    answers the same question without mutating; ``rarity`` scores a
    vector by the scarcity of its points (the frontier ordering).  The
    JSON form is fully sorted, so equal maps serialize to equal bytes.
    """

    def __init__(self, counts: Optional[Dict[str, int]] = None):
        self._counts: Dict[str, int] = dict(counts or {})
        self._observations = 0

    def __len__(self) -> int:
        return len(self._counts)

    def __eq__(self, other) -> bool:
        return (isinstance(other, CoverageMap)
                and self._counts == other._counts
                and self._observations == other._observations)

    def __contains__(self, point: str) -> bool:
        return point in self._counts

    @property
    def observations(self) -> int:
        """Number of vectors merged so far."""
        return self._observations

    def novelty(self, vector: ShapeVector) -> Tuple[str, ...]:
        """The vector's points not yet in the map (sorted)."""
        return tuple(p for p in vector.points if p not in self._counts)

    def is_novel(self, vector: ShapeVector) -> bool:
        return bool(self.novelty(vector))

    def merge(self, vector: ShapeVector) -> Tuple[str, ...]:
        """Fold a vector in; returns the points it newly contributed."""
        new = self.novelty(vector)
        for point in vector.points:
            self._counts[point] = self._counts.get(point, 0) + 1
        self._observations += 1
        return new

    def rarity(self, vector: ShapeVector) -> float:
        """Scarcity score: sum of 1/frequency over the vector's points.

        Unseen points count as 1 each, so novel vectors always outrank
        fully-covered ones; among covered vectors, the ones holding the
        map's rarest points rank first.
        """
        return sum(1.0 / self._counts.get(point, 1)
                   for point in vector.points)

    def frontier(self, entries: Iterable[Tuple[str, ShapeVector]],
                 k: Optional[int] = None) -> List[str]:
        """Rank ``(key, vector)`` entries by rarity, rarest first.

        Ties break on the key, so the ordering — and therefore the fuzz
        loop's draw sequence — is fully deterministic.
        """
        ranked = sorted(
            entries, key=lambda item: (-self.rarity(item[1]), item[0])
        )
        keys = [key for key, _vector in ranked]
        return keys if k is None else keys[:k]

    def by_axis(self) -> Dict[str, int]:
        """Distinct point count per axis (sorted by axis name)."""
        grouped: Dict[str, int] = {}
        for point in self._counts:
            axis = point.split(":", 1)[0]
            grouped[axis] = grouped.get(axis, 0) + 1
        return dict(sorted(grouped.items()))

    def to_json(self) -> dict:
        return {
            "schema": SHAPE_SCHEMA,
            "observations": self._observations,
            "points": {p: self._counts[p] for p in sorted(self._counts)},
        }

    @classmethod
    def from_json(cls, payload: dict) -> "CoverageMap":
        if payload.get("schema") != SHAPE_SCHEMA:
            raise ConfigError(
                f"unsupported coverage-map schema {payload.get('schema')!r}"
            )
        cov = cls(counts=dict(payload["points"]))
        cov._observations = int(payload.get("observations", 0))
        return cov
