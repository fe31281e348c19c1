"""Case files: UTF-8 `key = value` sections describing one input algebra.

Grammar (configparser dialect, `#`-comments):

    [algebra]
    name      = quadric-cone
    variables = X, Y, Z          # comma-separated identifiers
    weights   = 1, 1, 1          # optional, defaults to all 1
    relations = X*Y - Z^2        # ';'-separated and/or one per line

    [expect]                     # optional expected verdicts, for
    f1 = true                    # run = pipeline only; keys and their
    rees_dim = 4                 # parsers in EXPECTATIONS
    torsion_contains = X*T2
    rees_ideal = X*Y; X*T2; Y*T1; T1*T2

    [mode]                       # optional
    run = pipeline               # pipeline | prop31
    seed = 0
    rowops = 2
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field

from .errors import ParseError
from .poly import VariableContext, extended_context, parse_polynomial


@dataclass
class CaseFile:
    name: str
    context: VariableContext
    relations: tuple
    expectations: dict = field(default_factory=dict)
    mode: str = "pipeline"
    seed: int | None = None
    rowops: int = 0

    def seed_for(self, seed):
        """The seed a run uses: `seed` when given (0 included), else the
        file's `[mode] seed`, else 0."""
        if seed is not None:
            return seed
        return 0 if self.seed is None else self.seed


def _split_values(raw):
    parts = []
    for line in raw.splitlines():
        for chunk in line.split(";"):
            chunk = chunk.strip()
            if chunk:
                parts.append(chunk)
    return parts


def _boolean(key, raw, ring):
    low = raw.strip().lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ParseError(f"expected a boolean for {key!r}, got {raw!r}")


def _integer(key, raw, ring=None, nonnegative=False):
    try:
        value = int(raw)
    except ValueError:
        value = None
    if value is None or (nonnegative and value < 0):
        kind = "a nonnegative integer" if nonnegative else "an integer"
        raise ParseError(f"expected {kind} for {key!r}, got {raw!r}")
    return value


def _polynomials(key, raw, ring):
    return tuple(parse_polynomial(ring, chunk)
                 for chunk in _split_values(raw))


# The [expect] vocabulary: each key's parser, called as parse(key, raw,
# ring) with the case's extended ring (base and T-variables), and what its
# value must equal: the report field at a path (a report section, then
# keys into it), or, for the two polynomial keys, the name of their own
# check ("torsion": each is a torsion generator; "rees_ideal": together
# they generate the Rees ideal).
EXPECTATIONS = {
    "standard_graded": (_boolean, ("hypotheses", "standard_graded")),
    "reduced": (_boolean, ("hypotheses", "reduced")),
    "condition_i": (_boolean, ("hypotheses", "condition_i")),
    "f0": (_boolean, ("fitting", "f0", "holds")),
    "f1": (_boolean, ("fitting", "f1", "holds")),
    "linear_type": (_boolean, ("linear_type", "holds")),
    "rees_cm": (_boolean, ("rees_cm", "holds")),
    "shortcut_cm": (_boolean, ("shortcut", "cm")),
    "rees_dim": (_integer, ("rees_cm", "dim")),
    "rees_depth": (_integer, ("rees_cm", "depth")),
    "rees_pd": (_integer, ("rees_cm", "pd")),
    "spread": (_integer, ("spread", "value")),
    "edim": (_integer, ("edim", "edim")),
    "dim": (_integer, ("edim", "dim")),
    "torsion_contains": (_polynomials, "torsion"),
    "rees_ideal": (_polynomials, "rees_ideal"),
}


def _read(path, kind, required):
    """A configparser over the UTF-8 file at `path`, which must have the
    section `required`; `kind` names the file in error messages."""
    parser = configparser.ConfigParser(interpolation=None,
                                       comment_prefixes=("#",))
    parser.optionxform = str
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh, source=str(path))
    except OSError as ex:
        raise ParseError(f"cannot read {kind} file: {ex}")
    except UnicodeDecodeError as ex:
        raise ParseError(f"{kind} file is not UTF-8: {ex}")
    except configparser.Error as ex:
        raise ParseError(f"bad {kind} file structure: {ex}")
    if not parser.has_section(required):
        raise ParseError(f"{kind} file needs a [{required}] section")
    return parser


def _context(section):
    """The VariableContext of a section's `variables` and `weights`."""
    if "variables" not in section:
        raise ParseError(f"[{section.name}] needs a 'variables' key")
    names = [v.strip() for v in section["variables"].split(",") if v.strip()]
    weights = None
    if "weights" in section:
        try:
            weights = [int(w) for w in section["weights"].split(",")]
        except ValueError:
            raise ParseError("weights must be integers")
    try:
        return VariableContext(names, weights)
    except ValueError as ex:
        raise ParseError(str(ex))


def load_case(path):
    """Parse and lex a case file, every `[expect]` value included;
    algebra-level validation happens later so rejections can list every
    violated hypothesis."""
    parser = _read(path, "case", "algebra")
    section = parser["algebra"]
    context = _context(section)
    relations = []
    for chunk in _split_values(section.get("relations", "")):
        relations.append(parse_polynomial(context, chunk))
    name = section.get("name", "").strip() or "unnamed"

    expectations = {}
    if parser.has_section("expect"):
        ring = extended_context(context)
        for key, raw in parser["expect"].items():
            if key not in EXPECTATIONS:
                raise ParseError(f"unknown expectation key {key!r}")
            expectations[key] = EXPECTATIONS[key][0](key, raw, ring)

    mode, seed, rowops = "pipeline", None, 0
    if parser.has_section("mode"):
        msec = parser["mode"]
        mode = msec.get("run", "pipeline").strip()
        if mode not in ("pipeline", "prop31"):
            raise ParseError(f"unknown mode {mode!r}")
        if "seed" in msec:
            seed = _integer("seed", msec["seed"])
        if "rowops" in msec:
            rowops = _integer("rowops", msec["rowops"], nonnegative=True)
    if mode == "prop31" and parser.has_section("expect"):
        raise ParseError("[expect] applies to run = pipeline only, and "
                         "[mode] has run = prop31")

    return CaseFile(name=name, context=context, relations=tuple(relations),
                    expectations=expectations, mode=mode, seed=seed,
                    rowops=rowops)


def load_matrix_file(path):
    """Parse a [matrix] file: `variables`, optional `weights`, and a
    multiline `rows` value with one ';'-separated row per line, at most
    as many rows as columns, as the Eagon-Northcott complex needs."""
    section = _read(path, "matrix", "matrix")["matrix"]
    context = _context(section)
    rows = []
    for line in section.get("rows", "").splitlines():
        line = line.strip()
        if not line:
            continue
        rows.append(tuple(parse_polynomial(context, c)
                          for c in line.split(";")))
    if not rows:
        raise ParseError("[matrix] needs a nonempty 'rows' value")
    if len({len(r) for r in rows}) != 1:
        raise ParseError("matrix rows must have equal length")
    if len(rows) > len(rows[0]):
        raise ParseError("matrix needs at least as many columns as rows")
    from .matrix import PolyMatrix
    return PolyMatrix(context, tuple(rows))
