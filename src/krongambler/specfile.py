"""JSON game-spec files: schema validation and conversion to GameSpec.

Files are versioned ("version": 1) and use 1-based dimension indices and
state labels throughout, matching the library's state convention.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .birth_death import BirthDeathSpec
from .errors import SpecError
from .game import GameSpec, preset_r_of_d

SCHEMA_VERSION = 1


class SpecFileError(SpecError):
    """Invalid spec file; carries the offending field path."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


def _require(cond: bool, field: str, message: str):
    if not cond:
        raise SpecFileError(field, message)


def _number(value, field: str) -> float:
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             field, "expected a number")
    try:
        return float(value)
    except OverflowError:  # an integer past the largest double
        raise SpecFileError(field, "integer too large for a float") from None


def _numbers(values: list, field: str) -> tuple:
    """The floats of a list of numbers. The entry types are checked in one
    pass, and the list converted in one more; only when either fails is
    the list read entry by entry, so that the first entry that is not a
    number, or is an integer too large for a float, names its field."""
    if set(map(type, values)) <= {int, float}:
        try:
            return tuple(map(float, values))
        except OverflowError:
            pass
    return tuple(_number(x, f"{field}[{k}]") for k, x in enumerate(values))


def _int(value, field: str) -> int:
    _require(isinstance(value, int) and not isinstance(value, bool),
             field, "expected an integer")
    return int(value)


def check_count(value, field: str, least: int) -> int:
    value = _int(value, field)
    _require(value >= least, field, f"must be >= {least}")
    return value


def check_eps(value, field: str = "eps") -> float:
    value = _number(value, field)
    _require(0 < value < 1, field, "must lie in (0, 1)")  # NaN fails too
    return value


@dataclass(frozen=True)
class ParsedSpec:
    game: GameSpec
    start: tuple
    seed: int
    runs: int
    horizon: int | None
    eps: float


def parse_spec(doc: dict) -> ParsedSpec:
    """Validate a decoded JSON document and build the game it describes."""
    _require(isinstance(doc, dict), "$", "top-level value must be an object")
    version = doc.get("version", SCHEMA_VERSION)
    # True and 1.0 equal 1 but are not the integer version
    _require(type(version) is int and version == SCHEMA_VERSION, "version",
             f"unsupported version {version!r}")

    _require("dims" in doc, "dims", "missing")
    raw_dims = doc["dims"]
    _require(isinstance(raw_dims, list) and raw_dims, "dims",
             "expected a nonempty array")
    dims = []
    for i, entry in enumerate(raw_dims):
        field = f"dims[{i}]"
        _require(isinstance(entry, dict), field, "expected an object")
        for key in ("N", "p", "q"):
            _require(key in entry, f"{field}.{key}", "missing")
        n = _int(entry["N"], f"{field}.N")
        for key in ("p", "q"):
            _require(isinstance(entry[key], list), f"{field}.{key}",
                     "expected an array")
            _require(len(entry[key]) == n - 1, f"{field}.{key}",
                     f"expected length N-1={n - 1}")
        p = _numbers(entry["p"], f"{field}.p")
        q = _numbers(entry["q"], f"{field}.q")
        try:
            dims.append(BirthDeathSpec(N=n, p=p, q=q))
        except SpecError as exc:
            raise SpecFileError(field, str(exc)) from exc
    d = len(dims)

    _require("mixing" in doc, "mixing", "missing")
    mixing = doc["mixing"]
    _require(isinstance(mixing, dict), "mixing", "expected an object")
    if "preset" in mixing:
        preset = mixing["preset"]
        _require(isinstance(preset, dict), "mixing.preset", "expected an object")
        _require(preset.get("type") == "r_of_d", "mixing.preset.type",
                 "only 'r_of_d' is defined")
        r = _int(preset.get("r"), "mixing.preset.r")
        try:
            game = preset_r_of_d(dims, r)
        except SpecError as exc:
            raise SpecFileError("mixing.preset.r", str(exc)) from exc
    else:
        for key in ("subsets", "coeffs"):
            _require(key in mixing, f"mixing.{key}",
                     "missing (give either a preset or subsets+coeffs)")
        raw_subsets = mixing["subsets"]
        raw_coeffs = mixing["coeffs"]
        _require(isinstance(raw_subsets, list) and raw_subsets,
                 "mixing.subsets", "expected a nonempty array")
        _require(isinstance(raw_coeffs, list), "mixing.coeffs",
                 "expected an array")
        subsets = []
        for i, a in enumerate(raw_subsets):
            field = f"mixing.subsets[{i}]"
            _require(isinstance(a, list), field, "expected an array")
            members = [_int(j, f"{field}[{k}]") for k, j in enumerate(a)]
            _require(all(1 <= j <= d for j in members), field,
                     f"dimension indices must lie in 1..{d}")
            subsets.append(frozenset(members))
        coeffs = _numbers(raw_coeffs, "mixing.coeffs")
        try:
            game = GameSpec(dims=tuple(dims), subsets=tuple(subsets),
                            coeffs=coeffs)
        except SpecError as exc:
            raise SpecFileError("mixing", str(exc)) from exc

    start = doc.get("start", [1] * d)
    _require(isinstance(start, list) and len(start) == d, "start",
             f"expected an array of {d} coordinates")
    start = tuple(_int(c, f"start[{i}]") for i, c in enumerate(start))
    for i, (c, s) in enumerate(zip(start, dims)):
        _require(1 <= c <= s.N, f"start[{i}]", f"must lie in 1..{s.N}")

    seed = check_count(doc.get("seed", 0), "seed", 0)
    runs = check_count(doc.get("runs", 10000), "runs", 1)
    horizon = doc.get("horizon")
    if horizon is not None:
        horizon = check_count(horizon, "horizon", 0)
    eps = check_eps(doc.get("eps", 1e-12))

    return ParsedSpec(game=game, start=start, seed=seed, runs=runs,
                      horizon=horizon, eps=eps)


def load_spec(path: str) -> ParsedSpec:
    """Read and validate a spec file from disk."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SpecFileError("$", f"invalid JSON: {exc}") from exc
    return parse_spec(doc)
