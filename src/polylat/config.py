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

Values after '=' are JSON; strings of the shape "p/q" become exact
rationals where a matrix entry is expected.
"""

from dataclasses import dataclass, field
from fractions import Fraction
import json
import os

from .errors import ConfigError, ConfigNotFound
from .lattice import PolarizedAbelianData, SumLattice


@dataclass
class RunConfig:
    lattice_kind: str  # 'abelian' or 'euclidean'
    data: object = None
    frame_q: object = None
    rank: int = 0
    defaults: dict = field(default_factory=dict)
    path: str = ""

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


def _as_rational(x):
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float) and x == int(x):
        return Fraction(int(x))
    raise ConfigError(f"matrix entry {x!r} is not an exact rational")


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
    if lat.get("mode") == "euclidean":
        rank = int(lat.get("rank", 0))
        if rank < 1:
            raise ConfigError("euclidean mode needs rank >= 1")
        q = lat.get("q")
        if q is not None:
            q = [[float(_as_number(x)) for x in row] for row in q]
        return RunConfig(
            lattice_kind="euclidean", frame_q=q, rank=rank, defaults=defaults, path=path
        )
    d = lat.get("d")
    e_mat = lat.get("E")
    if d is None or e_mat is None:
        raise ConfigError("[lattice] needs d and E (plus J or period_matrix)")
    if "J" in lat:
        j_mat = [[_as_rational(x) for x in row] for row in lat["J"]]
        data = PolarizedAbelianData(int(d), j_mat, e_mat)
    elif "period_matrix" in lat:
        periods = [
            [complex(entry[0], entry[1]) for entry in row] for row in lat["period_matrix"]
        ]
        data = PolarizedAbelianData.from_period_matrix(periods, e_mat)
    else:
        raise ConfigError("[lattice] needs J or period_matrix")
    return RunConfig(
        lattice_kind="abelian", data=data, rank=2 * int(d), defaults=defaults, path=path
    )


def _as_number(x):
    if isinstance(x, str):
        return float(Fraction(x))
    if isinstance(x, (int, float)):
        return float(x)
    raise ConfigError(f"numeric entry expected, got {x!r}")
