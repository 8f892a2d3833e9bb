"""JSON round-tripping for fitted reducer models.

A model file is ``{"type": <reducer name>, <field>: <value>, ...}`` with the
model dataclass's fields in declaration order. Floats survive exactly: json
emits the shortest repr that parses back to the same double, so save -> load
reproduces every field bit-for-bit.
"""

import json
from dataclasses import fields
from pathlib import Path

import numpy as np

from .errors import InvalidInputError, OutputError
from .reducers import IcaModel, PcaModel, SomGrid

# reducer name (as in REDUCER_ORDER) -> the model class its fit returns
MODEL_TYPES = {"pca": PcaModel, "som": SomGrid, "fastica": IcaModel}
_TYPE_NAMES = {cls: name for name, cls in MODEL_TYPES.items()}


def model_to_dict(model):
    kind = _TYPE_NAMES.get(type(model))
    if kind is None:
        raise InvalidInputError(f"cannot serialize {type(model).__name__}")
    out = {"type": kind}
    for f in fields(model):
        value = getattr(model, f.name)
        out[f.name] = value.tolist() if f.type is np.ndarray else value
    return out


def model_from_dict(payload):
    if not isinstance(payload, dict):
        raise InvalidInputError(f"model must be a JSON object, got {type(payload).__name__}")
    kind = payload.get("type")
    cls = MODEL_TYPES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise InvalidInputError(f"unknown model type {kind!r}; valid: {list(MODEL_TYPES)}")
    wanted = [f.name for f in fields(cls)]
    missing = [name for name in wanted if name not in payload]
    if missing:
        raise InvalidInputError(f"{kind} model is missing fields {missing}")
    extra = sorted(set(payload) - set(wanted) - {"type"})
    if extra:
        raise InvalidInputError(f"{kind} model has unknown fields {extra}")
    values = {}
    for f in fields(cls):
        convert = (lambda v: np.asarray(v, dtype=float)) if f.type is np.ndarray else f.type
        try:
            values[f.name] = convert(payload[f.name])
        except (TypeError, ValueError) as exc:
            raise InvalidInputError(f"{kind} model: bad field {f.name!r}: {exc}") from exc
    return cls(**values)


def save_model(model, path):
    path = Path(path)
    try:
        path.write_text(json.dumps(model_to_dict(model), indent=2) + "\n", encoding="utf-8")
    except OSError as exc:
        raise OutputError(f"cannot write model to {path}: {exc}") from exc


def load_model(path):
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise InvalidInputError(f"cannot read model from {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"model file {path} is not valid JSON: {exc}") from exc
    try:
        return model_from_dict(payload)
    except InvalidInputError as exc:
        raise InvalidInputError(f"model file {path}: {exc}") from exc
