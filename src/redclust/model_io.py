"""JSON round-tripping for fitted reducer models.

A model file is ``{"type": <reducer name>, <field>: <value>, ...}`` with the
model dataclass's fields in declaration order. Floats survive exactly: json
emits the shortest repr that parses back to the same double, so save -> load
reproduces every field bit-for-bit. Loading coerces nothing: each field must
hold its exact JSON type (``true``/``false`` for a flag, an integer that is
not a flag for a count), FastICA's nonlinearity must be a known one, and the
arrays must be finite and their shapes must agree with each other and, for
a SOM, with its grid.
"""

import json
from dataclasses import fields
from pathlib import Path

import numpy as np

from .errors import InvalidInputError, OutputError
from .reducers import IcaModel, PcaModel, SomGrid
from .reducers.ica import NONLINEARITIES

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


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# field annotation -> (test of the parsed JSON value, what the test asks for)
_JSON_TYPES = {
    bool: (lambda v: isinstance(v, bool), "true or false"),
    int: (lambda v: _is_number(v) and isinstance(v, int), "an integer"),
    str: (lambda v: isinstance(v, str), "a string"),
    list: (lambda v: isinstance(v, list) and all(map(_is_number, v)), "a list of numbers"),
    np.ndarray: (lambda v: isinstance(v, list), "a list"),
}

# model class -> each array field's shape as named axes; a name shared by two
# fields is one size, and a SOM codebook has a row per grid node
_SHAPES = {
    PcaModel: {"basis": ("dim", "retained"), "mean": ("dim",), "eigenvalues": ("dim",)},
    SomGrid: {"codebook": ("nodes", "dim")},
    IcaModel: {"mean": ("dim",), "whitening": ("components", "dim"),
               "unmixing": ("components", "components")},
}


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
        value = payload[f.name]
        accepts, expected = _JSON_TYPES[f.type]
        if not accepts(value):
            raise InvalidInputError(f"{kind} model: field {f.name!r} must be {expected}, got {value!r}")
        if f.type is np.ndarray:
            try:
                value = np.asarray(value, dtype=float)
            except (TypeError, ValueError) as exc:
                raise InvalidInputError(f"{kind} model: bad field {f.name!r}: {exc}") from exc
            if not np.isfinite(value).all():
                raise InvalidInputError(f"{kind} model: field {f.name!r} holds non-finite values")
        values[f.name] = value

    if cls is IcaModel and values["nonlinearity"] not in NONLINEARITIES:
        raise InvalidInputError(
            f"fastica model: nonlinearity must be one of {sorted(NONLINEARITIES)}, "
            f"got {values['nonlinearity']!r}"
        )
    sizes = {}
    if cls is SomGrid:
        if values["width"] < 1 or values["height"] < 1:
            raise InvalidInputError(
                f"som model: grid sides must be >= 1, got {values['width']}x{values['height']}"
            )
        sizes["nodes"] = values["width"] * values["height"]
    for name, axes in _SHAPES[cls].items():
        shape = values[name].shape
        if len(shape) != len(axes) or any(
            sizes.setdefault(axis, size) != size for axis, size in zip(axes, shape)
        ):
            raise InvalidInputError(
                f"{kind} model: field {name!r} has shape {shape}, expected axes {axes} of sizes {sizes}"
            )
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
