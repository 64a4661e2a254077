"""Structured-text configuration: sections of key = value lines.

Grammar (documented in the README):

    # comment
    [lattice]
    d = 1
    J = [["0", "-1"], ["1", "0"]]      # entries: ints or "p/q" strings
    E = [[0, -1], [1, 0]]
    # alternatives to J:
    #   period_matrix = [[[re, im], ...]]   (d rows of 2d complex entries)
    # or a euclidean frame instead of abelian data:
    #   mode = "euclidean"
    #   rank = 2
    #   q = [[1, 0], [0, 1]]

    [defaults]
    tol = 1e-10
    split_a = 1.0
    grade_max = 4

Values after '=' are JSON.  Every matrix entry, d, rank and grade_max is
read exactly by ratlin.as_fraction: an int, an integral float or a string
such as "p/q" or "0.25"; d, rank, grade_max and the entries of E must be
integers.  Anything else is a ConfigError.
"""

from dataclasses import dataclass, field
import json
import os
import sys

from . import ratlin
from .errors import ConfigError, ConfigNotFound
from .lattice import PolarizedAbelianData, SumLattice


@dataclass
class RunConfig:
    lattice_kind: str  # 'abelian' or 'euclidean'
    data: object = None
    frame_q: object = None
    rank: int = 0
    defaults: dict = field(default_factory=dict)

    def frame(self, side="dual"):
        if self.lattice_kind == "euclidean":
            return SumLattice.euclidean(self.rank, self.frame_q)
        return SumLattice.from_abelian(self.data, side=side)

    def tol(self, override=None):
        if override is not None:
            return float(override)
        return float(self.defaults.get("tol", 1e-10))

    def split_a(self, override=None):
        if override is not None:
            return float(override)
        return float(self.defaults.get("split_a", self.defaults.get("A", 1.0)))

    def grade_max(self, override=None):
        if override is not None:
            return int(override)
        return int(self.defaults.get("grade_max", 4))


def parse_sections(text):
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, value = line.split("=", 1)
        try:
            sections[current][key.strip()] = json.loads(value.strip())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"line {lineno}: bad JSON value: {exc}") from None
    return sections


def _exact(where, x, integral=False):
    """x by ratlin.as_fraction, the one coercion of every entry: a Fraction, or an
    int where integral; a ConfigError if x is malformed or not integral where asked."""
    try:
        value = ratlin.as_fraction(x)
    except (ValueError, TypeError, ZeroDivisionError, OverflowError) as exc:
        raise ConfigError(f"{where}: malformed entry {x!r}: {exc}") from None
    if not integral:
        return value
    if value.denominator != 1:
        raise ConfigError(f"{where}: {x!r} is not an integer")
    return int(value)


def _matrix(where, rows, n, integral=False):
    """An n x n matrix of exact entries; a ConfigError for any other shape."""
    if not isinstance(rows, list) or len(rows) != n or any(not isinstance(r, list) or len(r) != n for r in rows):
        raise ConfigError(f"{where} must be a {n}x{n} matrix")
    return [[_exact(where, x, integral) for x in row] for row in rows]


def load_config(path):
    if not os.path.exists(path):
        raise ConfigNotFound(f"config file not found: {path}")
    with open(path, encoding="utf-8") as fh:
        sections = parse_sections(fh.read())
    lat = sections.get("lattice")
    if lat is None:
        raise ConfigError("missing [lattice] section")
    defaults = sections.get("defaults", {})
    for key in ("tol", "split_a", "A"):
        try:
            ok = 0 < float(defaults.get(key, 1.0)) < float("inf")
        except (TypeError, ValueError):
            ok = False
        if not ok:
            raise ConfigError(f"[defaults] {key} must be a positive number, got {defaults[key]!r}")
    if "grade_max" in defaults:
        defaults["grade_max"] = _exact("[defaults] grade_max", defaults["grade_max"], integral=True)
    if lat.get("mode") == "euclidean":
        rank = _exact("[lattice] rank", lat.get("rank", 0), integral=True)
        if rank < 1:
            raise ConfigError("euclidean mode needs rank >= 1")
        q = lat.get("q")
        if q is not None:
            q = _matrix("[lattice] q", q, rank)
            if any(abs(x) > sys.float_info.max for row in q for x in row):
                raise ConfigError("[lattice] q has an entry beyond float range")
            q = [[float(x) for x in row] for row in q]
        return RunConfig(lattice_kind="euclidean", frame_q=q, rank=rank, defaults=defaults)
    if "d" not in lat or "E" not in lat:
        raise ConfigError("[lattice] needs d and E (plus J or period_matrix)")
    d = _exact("[lattice] d", lat["d"], integral=True)
    if d < 1:
        raise ConfigError("[lattice] needs d >= 1")
    e_mat = _matrix("[lattice] E", lat["E"], 2 * d, integral=True)
    if "J" in lat:
        data = PolarizedAbelianData(d, _matrix("[lattice] J", lat["J"], 2 * d), e_mat)
    elif "period_matrix" in lat:
        try:
            periods = [[complex(entry[0], entry[1]) for entry in row] for row in lat["period_matrix"]]
            data = PolarizedAbelianData.from_period_matrix(periods, e_mat)
        except (TypeError, ValueError, IndexError) as exc:
            raise ConfigError(f"[lattice] period_matrix: {exc}") from None
    else:
        raise ConfigError("[lattice] needs J or period_matrix")
    return RunConfig(lattice_kind="abelian", data=data, rank=2 * d, defaults=defaults)
