"""Workspace files: a single JSON document naming complexes, chain maps,
groups, group homomorphisms, towers of either kind, and level pro-maps.

Matrices are arrays of arrays of decimal integer strings so arbitrary
precision survives serialization; plain integers are accepted on input.
parse/serialize round-trip byte-identically on canonical files.
"""

from __future__ import annotations

import json
from typing import Optional

from .chain import ChainComplex, ChainMap, chain_map, is_chain_map, make_complex
from .errors import ParseError, PreconditionViolated, ValidationError
from .exactalg.groups import FgAbGroup, GroupHom, group_from_presentation, hom
from .exactalg.matrices import IntMatrix
from .exactalg.ring import GF, RingTag, ZZ
from .pro import IndexShift, ProMap, TailPolicy, Tower, _same_object
from .value import Record


class Config(Record):
    # budget_filler, budget_reindex and lim_window have no reader; workspace
    # files and the canonical serialization still carry them
    _fields = ("budget_filler", "budget_reindex", "lim_window")

    def __init__(self, budget_filler: int = 8, budget_reindex: int = 8,
                 lim_window: int = 24):
        self.budget_filler = budget_filler
        self.budget_reindex = budget_reindex
        self.lim_window = lim_window

    def validate(self):
        if min(self.budget_filler, self.budget_reindex, self.lim_window) <= 0:
            raise ValidationError("budgets must be positive")


class Workspace(Record):
    """The objects of one workspace file: one table per kind (see _TABLES)
    from name to object, empty when left out."""

    _fields = ("ring", "config", "complexes", "maps", "groups", "group_maps",
               "towers", "group_towers", "promaps", "group_promaps", "raw")

    def __init__(self, ring: RingTag, config: Config, complexes=None, maps=None,
                 groups=None, group_maps=None, towers=None, group_towers=None,
                 promaps=None, group_promaps=None, raw: Optional[dict] = None):
        self.ring = ring
        self.config = config
        self.complexes = {} if complexes is None else complexes
        self.maps = {} if maps is None else maps
        self.groups = {} if groups is None else groups
        self.group_maps = {} if group_maps is None else group_maps
        self.towers = {} if towers is None else towers
        self.group_towers = {} if group_towers is None else group_towers
        self.promaps = {} if promaps is None else promaps
        self.group_promaps = {} if group_promaps is None else group_promaps
        # the parsed JSON document, which serialize_workspace normalizes
        self.raw = {} if raw is None else raw

    def __repr__(self):  # without raw, the whole parsed document
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields[:-1])
        return f"{self.__class__.__qualname__}({shown})"

    def lookup(self, name: str, kind: Optional[str] = None):
        """The object called `name`; with `kind` given, it must be of that
        kind (one of the kinds in _TABLES)."""
        for found, table in _TABLES:
            objects = getattr(self, table)
            if name in objects:
                if kind is not None and found != kind:
                    raise ParseError(f"'{name}' is a {found}, expected a {kind}")
                return objects[name]
        raise ParseError(f"unknown object '{name}'")


# object kind -> the Workspace table holding objects of that kind
_TABLES = (("complex", "complexes"), ("map", "maps"), ("group", "groups"),
           ("group map", "group_maps"), ("tower", "towers"),
           ("group tower", "group_towers"), ("promap", "promaps"),
           ("group promap", "group_promaps"))


def _shown(value) -> str:
    text = json.dumps(value)
    return text if len(text) <= 40 else text[:36] + " ..."


def _int(value, where: str) -> int:
    """A workspace number: a JSON integer or an integer string.  Anything
    else, a float or a bool included, is a ParseError naming its place,
    since int() would cut 1.9 to 1 and read true as 1."""
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise ParseError(f"{where}: expected an integer, got {_shown(value)}")


# a few bytes of JSON must not ask for a huge matrix or a long primality
# test: generators of a complex (summed over its degrees) or of a group,
# degrees and the field modulus are bounded
MAX_GENERATORS = 4096
MAX_DEGREE = 1024
MAX_MODULUS = 2 ** 31


def _bounded(value, lo: int, hi: int, where: str) -> int:
    """A workspace number from lo to hi; outside, a ValidationError."""
    n = _int(value, where)
    if not lo <= n <= hi:
        raise ValidationError(f"{where}: {n} is not between {lo} and {hi}")
    return n


_JSON_TYPES = {dict: "an object", list: "an array", str: "a string"}


def _typed(value, kind: type, where: str):
    """value, if it has the JSON type `kind` (dict, list or str); anything
    else is a ParseError naming its place."""
    if not isinstance(value, kind):
        raise ParseError(f"{where}: expected {_JSON_TYPES[kind]}, got {_shown(value)}")
    return value


def _parse_matrix(data, ring: RingTag, where: str) -> IntMatrix:
    if not isinstance(data, list):
        raise ParseError(f"{where}: matrix must be an array of rows")
    rows = []
    width = None
    for i, row in enumerate(data):
        if not isinstance(row, list):
            raise ParseError(f"{where}: row {i} is not an array")
        vals = [_int(x, f"{where} row {i}") for x in row]
        if width is None:
            width = len(vals)
        elif len(vals) != width:
            raise ParseError(f"{where}: row {i} has inconsistent width")
        rows.append(vals)
    if width is None:
        raise ParseError(f"{where}: matrix needs explicit shape; got []")
    return IntMatrix.from_rows(rows, ring, cols=width)


def _parse_ring(data) -> RingTag:
    if data == "Z":
        return ZZ
    if isinstance(data, dict) and set(data) == {"p"}:
        try:
            return GF(_bounded(data["p"], 0, MAX_MODULUS, "ring"))
        except ValidationError as e:
            raise ParseError(str(e))
    raise ParseError("ring must be \"Z\" or {\"p\": <prime>}")


def _parse_complex(name: str, data, ring: RingTag) -> ChainComplex:
    where = f"complex '{name}'"
    ranks = {_bounded(k, -MAX_DEGREE, MAX_DEGREE, f"{where} rank degree"):
             _int(v, f"{where} rank")
             for k, v in _typed(data.get("ranks", {}), dict, f"{where} ranks").items()}
    for n, r in sorted(ranks.items()):
        if r < 0:
            raise ValidationError(f"complex '{name}': negative rank {r} at degree {n}")
    _bounded(sum(ranks.values()), 0, MAX_GENERATORS, f"{where} total rank")
    diffs = {}
    for k, m in _typed(data.get("diffs", {}), dict, f"{where} diffs").items():
        n = _bounded(k, -MAX_DEGREE, MAX_DEGREE, f"{where} differential degree")
        rows = ranks.get(n - 1, 0)
        mat = _parse_matrix(m, ring, f"complex '{name}' diff {n}") if m else \
            IntMatrix.zeros(rows, ranks.get(n, 0), ring)
        if mat.shape != (ranks.get(n - 1, 0), ranks.get(n, 0)):
            raise ValidationError(
                f"complex '{name}': differential at degree {n} has shape "
                f"{mat.shape}, expected {(ranks.get(n - 1, 0), ranks.get(n, 0))}")
        diffs[n] = mat
    # make_complex refuses d o d != 0 too, but its error names neither the
    # complex nor the degree; missing differentials are zero
    for n in sorted(diffs):
        if n - 1 in diffs and not (diffs[n - 1] @ diffs[n]).is_zero:
            raise ValidationError(f"complex '{name}': d o d != 0 at degree {n}")
    return make_complex(ring, ranks, diffs)


def _ends(data, table, where: str):
    """The objects that data's "source" and "target" name in table."""
    src, tgt = (table.get(_typed(data.get(end), str, f"{where} {end}"))
                for end in ("source", "target"))
    if src is None or tgt is None:
        raise ParseError(f"{where}: unknown source or target")
    return src, tgt


def _named(data, key: str, table, where: str, what: str) -> list:
    """The objects of table named by the array of names under key."""
    names = [_typed(x, str, f"{where} {key}")
             for x in _typed(data.get(key, []), list, f"{where} {key}")]
    for x in names:
        if x not in table:
            raise ParseError(f"{where}: unknown {what} '{x}'")
    return [table[x] for x in names]


def _parse_chain_map(name, data, ws: Workspace) -> ChainMap:
    src, tgt = _ends(data, ws.complexes, f"map '{name}'")
    comps = {}
    for k, m in _typed(data.get("comps", {}), dict, f"map '{name}' comps").items():
        n = _int(k, f"map '{name}' component degree")
        comps[n] = mat = _parse_matrix(m, ws.ring, f"map '{name}' degree {n}")
        want = (tgt.rank(n), src.rank(n))
        if min(src.lo, tgt.lo) <= n <= max(src.hi, tgt.hi) and mat.shape != want:
            raise ValidationError(f"map '{name}': component at degree {n} has "
                                  f"shape {mat.shape}, expected {want}")
    f = chain_map(src, tgt, comps, check=False)
    if not is_chain_map(f):
        for n in sorted(comps):
            if not (tgt.diff(n) @ f.comp(n) - f.comp(n - 1) @ src.diff(n)).is_zero:
                raise ValidationError(
                    f"map '{name}': square does not commute at degree {n}")
        raise ValidationError(f"map '{name}': invalid components")
    return f


def _parse_group(name, data, ring) -> FgAbGroup:
    gens = _bounded(data.get("generators", 0), 0, MAX_GENERATORS,
                    f"group '{name}' generators")
    rels = _typed(data.get("relations", []), list, f"group '{name}' relations")
    cols = []
    for i, rel in enumerate(rels):
        where = f"group '{name}' relation {i}"
        vals = [_int(x, where) for x in _typed(rel, list, where)]
        if len(vals) != gens:
            raise ValidationError(f"group '{name}': relation {i} has wrong length")
        cols.append(vals)
    mat = IntMatrix.from_columns(cols, gens, ring)
    return group_from_presentation(mat)


def _parse_group_map(name, data, ws: Workspace) -> GroupHom:
    src, tgt = _ends(data, ws.groups, f"group map '{name}'")
    mat = _parse_matrix(data.get("matrix", []), ws.ring, f"group map '{name}'") \
        if data.get("matrix") else IntMatrix.zeros(tgt.ngens, src.ngens, ws.ring)
    if mat.shape != (tgt.ngens, src.ngens):
        raise ValidationError(f"group map '{name}': matrix shape {mat.shape} "
                              f"!= {(tgt.ngens, src.ngens)}")
    try:
        return hom(src, tgt, mat)
    except PreconditionViolated:
        raise ValidationError(f"group map '{name}': does not respect relations")


def _parse_tower(name, data, entry_table, map_table) -> Tower:
    where = f"tower '{name}'"
    entries = _named(data, "entries", entry_table, where, "entry")
    structure = _named(data, "structure", map_table, where, "structure map")
    tail = _typed(data.get("tail", {}), dict, f"{where} tail")
    if "constant_from" in tail:
        policy = TailPolicy.constant_from(
            _int(tail["constant_from"], f"tower '{name}' tail"))
    elif "repeat_from" in tail:
        endo_name = _typed(tail.get("endo"), str, f"{where} tail endo")
        if endo_name not in map_table:
            raise ParseError(f"tower '{name}': unknown tail endo '{endo_name}'")
        policy = TailPolicy.repeat_from(_int(tail["repeat_from"], f"tower '{name}' tail"),
                                        map_table[endo_name])
    else:
        raise ParseError(f"tower '{name}': tail must declare constant_from "
                         "or repeat_from")
    try:
        return Tower(tuple(entries), tuple(structure), policy)
    except ValidationError as e:
        raise ValidationError(f"tower '{name}': {e}")


def _parse_promap(name, data, tower_table, map_table) -> ProMap:
    src, tgt = _ends(data, tower_table, f"promap '{name}'")
    comps = _named(data, "comps", map_table, f"promap '{name}'", "component")
    if not comps:
        raise ValidationError(f"promap '{name}': no components")
    # checked here rather than by level_map, so that the error names the
    # promap: every component must join the right entries before the
    # squares through the checked window can be composed
    f = ProMap(src, tgt, IndexShift.level(), tuple(comps))
    if not (all(_same_object(f.comp(t).source, src.entry(t))
                and _same_object(f.comp(t).target, tgt.entry(t))
                for t in range(f.periodic_from + 3))
            and f.validate()):
        raise ValidationError(f"promap '{name}': squares do not commute")
    return f


def parse_workspace(path: str) -> Workspace:
    try:
        with open(path) as f:
            raw = f.read()
        data = json.loads(raw)
    except FileNotFoundError:
        raise ParseError(f"no such file: {path}")
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e.strerror}")
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}:{e.lineno}:{e.colno}: {e.msg}")
    except ValueError as e:
        # text that is not UTF-8, or a number too long to convert
        raise ParseError(f"{path}: {e}")
    if not isinstance(data, dict):
        raise ParseError("workspace must be a JSON object")
    ring = _parse_ring(data.get("ring", "Z"))
    cfg_data = _typed(data.get("config", {}), dict, "config")
    config = Config(**{key: _int(cfg_data.get(key, default), f"config {key}")
                       for key, default in vars(Config()).items()})
    config.validate()
    ws = Workspace(ring=ring, config=config, raw=data)
    seen = set()
    parsers = {
        "complexes": lambda name, d: _parse_complex(name, d, ring),
        "maps": lambda name, d: _parse_chain_map(name, d, ws),
        "groups": lambda name, d: _parse_group(name, d, ring),
        "group_maps": lambda name, d: _parse_group_map(name, d, ws),
        "towers": lambda name, d: _parse_tower(name, d, ws.complexes, ws.maps),
        "group_towers": lambda name, d: _parse_tower(name, d, ws.groups, ws.group_maps),
        "promaps": lambda name, d: _parse_promap(name, d, ws.towers, ws.maps),
        "group_promaps": lambda name, d: _parse_promap(name, d, ws.group_towers,
                                                       ws.group_maps),
    }
    # in the order of _TABLES, so every object is parsed after those it names
    for kind, section in _TABLES:
        for name, d in _typed(data.get(section, {}), dict, section).items():
            if name in seen:
                raise ValidationError(f"duplicate object name '{name}'")
            seen.add(name)
            getattr(ws, section)[name] = parsers[section](
                name, _typed(d, dict, f"{kind} '{name}'"))
    return ws


# ---------------------------------------------------------------------------
# Canonical serialization
# ---------------------------------------------------------------------------

def _same(value, ring):
    return value


def _number(value, ring):
    return int(value)


def _strings(matrix, ring):
    return [[str(ring.reduce(int(x))) for x in row] for row in matrix]


def _by_degree(form):
    return lambda value, ring: {str(k): form(v, ring) for k, v in value.items()}


def _tail(tail, ring):
    """The tail keys the parser reads: constant_from, or else repeat_from
    and endo."""
    if "constant_from" in tail:
        return {"constant_from": int(tail["constant_from"])}
    return {"repeat_from": int(tail["repeat_from"]), "endo": tail["endo"]}


# section -> field -> (default, canonical form of the value over the ring);
# the parser has checked every value, the canonical form drops every field
# outside this table, and it writes matrix entries reduced for the ring
_ENDS = {"source": (None, _same), "target": (None, _same)}
_TOWER = {"entries": ([], _same), "structure": ([], _same), "tail": ({}, _tail)}
_CANONICAL = {
    "complexes": {"ranks": ({}, _by_degree(_number)),
                  "diffs": ({}, _by_degree(_strings))},
    "maps": {**_ENDS, "comps": ({}, _by_degree(_strings))},
    "groups": {"generators": (0, _number), "relations": ([], _strings)},
    "group_maps": {**_ENDS, "matrix": ([], _strings)},
    "towers": _TOWER, "group_towers": _TOWER,
    "promaps": {**_ENDS, "comps": ([], _same)},
    "group_promaps": {**_ENDS, "comps": ([], _same)},
}


def serialize_workspace(ws: Workspace) -> str:
    """Canonical form: sorted keys, two-space indent, string matrix entries
    reduced for the ring.

    Normalizes the parsed document rather than reconstructing it, so the
    output is idempotent: serialize(parse(serialize(parse(f)))) equals
    serialize(parse(f)) byte for byte.
    """
    out = {"ring": "Z" if not ws.ring.is_field else {"p": ws.ring.p},
           "config": vars(ws.config)}
    for section, fields in _CANONICAL.items():
        if ws.raw.get(section):
            out[section] = {name: {key: form(d.get(key, default), ws.ring)
                                   for key, (default, form) in fields.items()}
                            for name, d in ws.raw[section].items()}
    return json.dumps(out, indent=2, sort_keys=True) + "\n"
