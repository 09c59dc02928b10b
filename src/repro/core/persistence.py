"""Persist experiment results to JSON for cross-run comparison.

Campaign latencies and cost reports serialize to a stable, versioned JSON
shape so that a run's numbers can be archived next to EXPERIMENTS.md,
diffed across calibration changes, or post-processed elsewhere.

This module is also the single serialization authority for completed
campaign outcomes: :func:`outcome_to_dict`/:func:`outcome_from_dict`
round-trip a :class:`~repro.core.parallel.CampaignOutcome` exactly
(floats survive via JSON shortest-repr), and both the result cache
(:mod:`repro.core.cache`) and the sweep journal
(:mod:`repro.core.checkpoint`) store that one document shape, guarded by
:func:`payload_checksum`.

There is one codec, derived from dataclass fields and their type
annotations: :func:`to_document`/:func:`from_document`.  A document is
the object's fields plus a ``format_version`` and a ``kind`` tag; the
tag of each part of an outcome document is the name of the
:class:`~repro.core.parallel.CampaignOutcome` field holding it
(``campaign``, ``cost``, ``audit``, one per campaign summary), so adding
a summary type means adding an outcome field, not a codec.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import fields as dataclass_fields, is_dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Tuple,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

from repro.core.costs import CostReport
from repro.core.experiment import CampaignResult
from repro.core.parallel import CampaignOutcome, CampaignSpec

FORMAT_VERSION = 1
#: keys a document carries next to the object's fields
_TAGS = ("format_version", "kind")
_NONE = type(None)

#: how to decode one JSON field value; ``None`` means "use it as is"
Decoder = Optional[Callable[[Any], Any]]


def to_document(obj: Any, kind: str) -> Dict[str, Any]:
    """The JSON-ready document of the dataclass ``obj``, tagged ``kind``.

    Values JSON cannot carry are left to the writer (every writer here
    passes ``default=repr``).
    """
    document = _plain(obj)
    document["format_version"] = FORMAT_VERSION
    document["kind"] = kind
    return document


def from_document(cls: type, data: Dict[str, Any], kind: str) -> Any:
    """Inverse of :func:`to_document`: rebuild a ``cls`` from ``data``.

    Raises :class:`ValueError` when ``data`` is not a ``kind`` document
    of this :data:`FORMAT_VERSION`.
    """
    _check(data, kind)
    return _decode(cls, {name: value for name, value in data.items()
                         if name not in _TAGS})


def outcome_to_dict(outcome: CampaignOutcome) -> Dict[str, Any]:
    """A JSON-ready representation of a full campaign outcome.

    Each dataclass-valued field becomes a document tagged with the
    field's name.  Exotic per-run values (anything JSON cannot carry)
    are stored as their ``repr`` — latencies, delays, breakdowns and
    cost meters round-trip exactly.
    """
    document: Dict[str, Any] = {"format_version": FORMAT_VERSION,
                                "kind": "outcome"}
    for name, _ in _outcome_fields():
        value = getattr(outcome, name)
        document[name] = (to_document(value, name) if is_dataclass(value)
                          else value)
    return document


def outcome_from_dict(data: Dict[str, Any],
                      spec: CampaignSpec) -> CampaignOutcome:
    """Inverse of :func:`outcome_to_dict` for the given ``spec``."""
    _check(data, "outcome")
    values = {}
    for name, cls in _outcome_fields():
        value = data.get(name)
        if value is not None:
            values[name] = (from_document(cls, value, name)
                            if is_dataclass(cls) else value)
    return CampaignOutcome(spec=spec, **values)


@functools.lru_cache(maxsize=None)
def _outcome_fields() -> Tuple[Tuple[str, Any], ...]:
    """``(name, type)`` of each stored :class:`CampaignOutcome` field
    (all but ``spec`` and ``cached``), from its annotations."""
    hints = get_type_hints(CampaignOutcome)
    return tuple((outcome_field.name,
                  _unwrap_optional(hints[outcome_field.name]))
                 for outcome_field in dataclass_fields(CampaignOutcome)
                 if outcome_field.name not in ("spec", "cached"))


def _plain(value: Any) -> Any:
    """``value`` as plain data: dataclasses become dicts and sequences
    lists, recursively (:func:`dataclasses.asdict` without its copies
    of every leaf)."""
    if isinstance(value, (str, int, float)) or value is None:
        return value
    if is_dataclass(value) and not isinstance(value, type):
        return {class_field.name: _plain(getattr(value, class_field.name))
                for class_field in dataclass_fields(value)}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    return value


@functools.lru_cache(maxsize=None)
def _decoders(cls: type) -> Dict[str, Callable[[Any], Any]]:
    """The fields of ``cls`` JSON cannot carry as they are, and how to
    decode each.  Resolved once per class: annotation lookup costs far
    more than the decoding itself."""
    hints = get_type_hints(cls)
    decoders = {name: _decoder(hint) for name, hint in hints.items()}
    return {name: decode for name, decode in decoders.items()
            if decode is not None}


def _decode(cls: type, data: Dict[str, Any]) -> Any:
    decoders = _decoders(cls)
    if decoders:
        data = dict(data)
        for name, decode in decoders.items():
            if name in data:
                data[name] = decode(data[name])
    # Unknown names reach the constructor and raise TypeError there.
    return cls(**data)


def _unwrap_optional(annotation: Any) -> Any:
    """``X`` for ``Optional[X]``; any other annotation unchanged."""
    if get_origin(annotation) is Union:
        members = [arg for arg in get_args(annotation) if arg is not _NONE]
        if len(members) == 1:
            return members[0]
    return annotation


def _decoder(annotation: Any) -> Decoder:
    """How to rebuild a value annotated ``annotation`` from JSON, where
    dataclasses arrive as dicts and tuples as lists."""
    inner = _unwrap_optional(annotation)
    if inner is not annotation:
        decode = _decoder(inner)
        if decode is None:
            return None
        return lambda value: None if value is None else decode(value)
    if is_dataclass(annotation):
        if not _decoders(annotation):
            return lambda value: annotation(**value)
        return functools.partial(_decode, annotation)
    origin = get_origin(annotation)
    if origin not in (list, tuple):
        return None
    items = [_decoder(arg) for arg in get_args(annotation)
             if arg is not Ellipsis]
    if all(decode is None for decode in items):
        return None if origin is list else tuple
    if len(items) > 1:          # a fixed-length tuple
        return lambda value: tuple(
            item if decode is None else decode(item)
            for decode, item in zip(items, value))
    decode = items[0]
    if origin is list:
        return lambda value: [decode(item) for item in value]
    return lambda value: tuple([decode(item) for item in value])


class SpecValidationError(ValueError):
    """A spec document cannot rebuild a :class:`CampaignSpec`.

    Always names the offending key, so a hand-edited repro file or a
    fuzzer-mutated document fails with ``spec field 'fault_plan': ...``
    instead of a bare ``KeyError``/``TypeError`` from deep inside the
    dataclass machinery.
    """

    def __init__(self, key: str, detail: str):
        super().__init__(f"spec field {key!r}: {detail}")
        self.key = key
        self.detail = detail

    def __reduce__(self):
        # The default reduce replays ``args`` (the formatted message)
        # into ``__init__(key, detail)`` — rebuild from the real fields
        # so the error survives worker→parent pickling intact.
        return (type(self), (self.key, self.detail))


@functools.lru_cache(maxsize=None)
def _spec_schema() -> Tuple[Dict[str, tuple], Tuple[str, ...]]:
    """From :class:`CampaignSpec`'s annotations: the JSON types each
    scalar field may carry, and the pair-list fields (``((name,
    value), ...)`` tuples in canonical form)."""
    hints = get_type_hints(CampaignSpec)
    types: Dict[str, tuple] = {}
    pairs = []
    for name, annotation in hints.items():
        inner = _unwrap_optional(annotation)
        if get_origin(inner) is tuple:
            pairs.append(name)
            continue
        allowed = (int, float) if inner is float else (inner,)
        types[name] = allowed + ((_NONE,) if inner is not annotation
                                 else ())
    return types, tuple(pairs)


def spec_to_dict(spec: CampaignSpec) -> Dict[str, Any]:
    """The JSON-ready canonical dict of ``spec``.

    The inverse of :func:`spec_from_dict`; today this is exactly
    :meth:`CampaignSpec.canonical`, named here so the serialization
    authority exports both directions of the round trip.
    """
    return spec.canonical()


def spec_from_dict(data: Dict[str, Any]) -> CampaignSpec:
    """Rebuild a :class:`CampaignSpec` from its ``canonical()`` dict.

    The round trip is hash-exact *and* equality-exact:
    ``spec_from_dict(spec_to_dict(spec))`` compares equal to the
    original and has the same ``spec_hash()`` (and therefore the same
    cache key), which is what lets a resumed sweep re-derive its specs
    from the journal manifest alone.

    Malformed documents — unknown keys, wrong-typed fields, truncated
    fault-plan pairs — raise :class:`SpecValidationError` naming the
    offending key, never a bare ``KeyError``/``TypeError``.
    """
    if not isinstance(data, dict):
        raise SpecValidationError(
            "<document>", f"expected a dict, got {type(data).__name__}")
    field_types, pair_fields = _spec_schema()
    known = {spec_field.name for spec_field in dataclass_fields(CampaignSpec)}
    fields = {}
    for name, value in data.items():
        if not isinstance(name, str) or name not in known:
            raise SpecValidationError(
                str(name), f"unknown CampaignSpec field; "
                           f"choose from {sorted(known)}")
        fields[name] = value
    for name, allowed in field_types.items():
        if name not in fields:
            continue
        value = fields[name]
        # bool is checked before int: ``isinstance(True, int)`` holds,
        # and a bool where a count belongs is a type error we want named
        if isinstance(value, bool) and bool not in allowed or \
                not isinstance(value, allowed):
            expected = " or ".join("null" if kind is _NONE else kind.__name__
                                   for kind in allowed)
            raise SpecValidationError(
                name, f"expected {expected},"
                      f" got {type(value).__name__} ({value!r})")
    # JSON turns the pair-tuples into lists; ``__post_init__`` only
    # re-normalizes non-empty ones, so coerce here for equality — and
    # reject truncated or non-pair entries by name.
    for name in pair_fields:
        if name not in fields:
            continue
        value = fields[name]
        if not isinstance(value, (list, tuple)):
            raise SpecValidationError(
                name, f"expected a list of (name, value) pairs, "
                      f"got {type(value).__name__}")
        pairs = []
        for item in value:
            if not isinstance(item, (list, tuple)) or len(item) != 2:
                raise SpecValidationError(
                    name, f"entries are (name, value) pairs, got {item!r}")
            if not isinstance(item[0], str):
                raise SpecValidationError(
                    name, f"pair names are strings, got {item[0]!r}")
            pairs.append(tuple(
                tuple(part) if isinstance(part, list) else part
                for part in item))
        fields[name] = tuple(pairs)
    try:
        return CampaignSpec(**fields)
    except SpecValidationError:
        raise
    except (ValueError, TypeError, KeyError, AttributeError) as error:
        # ``__post_init__`` raises about one field; name the first field
        # present in the document that the error message mentions.
        message = str(error).lower()
        key = next((name for name in fields
                    if name.lower() in message
                    or name.rstrip("s").replace("_", " ") in message),
                   "<spec>")
        raise SpecValidationError(
            key, f"{type(error).__name__}: {error}") from error


def payload_checksum(payload: Any) -> str:
    """A stable content checksum of a JSON-ready payload.

    Both the result cache and the sweep journal store this next to the
    document they write, so a torn or bit-rotted file is detected on
    read (and quarantined) instead of silently deserializing garbage.
    """
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def _check(data: Dict[str, Any], kind: str) -> None:
    if data.get("kind") != kind:
        raise ValueError(
            f"expected a {kind!r} document, got {data.get('kind')!r}")
    if data.get("format_version") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported format version {data.get('format_version')!r}")


def save_results(path: Union[str, Path],
                 campaigns: Optional[List[CampaignResult]] = None,
                 cost_reports: Optional[List[CostReport]] = None,
                 metadata: Optional[Dict[str, Any]] = None) -> Path:
    """Write campaigns and cost reports to one JSON file."""
    path = Path(path)
    document = {
        "format_version": FORMAT_VERSION,
        "kind": "results",
        "metadata": dict(metadata or {}),
        "campaigns": [to_document(campaign, "campaign")
                      for campaign in (campaigns or [])],
        "cost_reports": [to_document(report, "cost")
                         for report in (cost_reports or [])],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2, default=_fallback))
    return path


def load_results(path: Union[str, Path]) -> Dict[str, Any]:
    """Read a results file back into live objects."""
    data = json.loads(Path(path).read_text())
    _check(data, "results")
    return {
        "metadata": data["metadata"],
        "campaigns": [from_document(CampaignResult, campaign, "campaign")
                      for campaign in data["campaigns"]],
        "cost_reports": [from_document(CostReport, report, "cost")
                         for report in data["cost_reports"]],
    }


def _fallback(value: Any) -> Any:
    """JSON encoder fallback: stringify anything exotic in run values."""
    return repr(value)
