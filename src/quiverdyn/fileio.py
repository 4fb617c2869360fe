"""JSON file formats and the small polynomial input language.

All files are UTF-8 JSON with a schema_version field and a kind tag.
Rational coefficients are serialized as "p/q" strings so that exact-mode
golden files are bit-exact; floats are emitted as JSON numbers (repr
round-trip). Serialization is canonical (sorted keys, sorted term order),
so identical objects produce byte-identical files.

Polynomial expressions for the CLI use a term-list language, e.g.

    f(x,y) = -1*x^2 + 1*lambda*x + 1*y

Variables are bound positionally to the declared argument list; the names
``lambda``, ``lambda1`` .. are reserved for parameters and appended after
the state variables.
"""

from __future__ import annotations

import json
import math
import re
import sys
from fractions import Fraction

import numpy as np

from .errors import ParseError
from .network import ColouredNetwork
from .polynomial import Poly, exact_scalar
from .quiver import Quiver, QuiverRepresentation
from .tuples import DEGREE_CAP, PolyMap, PolyMapTuple

SCHEMA_VERSION = 1
# bits an exact literal's numerator and denominator may each have: both lie
# below 2^1024, so every accepted literal converts to a finite float
LITERAL_BITS = 1024


# --- scalars -----------------------------------------------------------------

def encode_number(x):
    """An exact scalar as the string "p/q" (an int as "p/1"), a float as
    itself."""
    if exact_scalar(x) is None:
        return float(x)
    return f"{x.numerator}/{x.denominator}"


def _exponent_too_large(literal):
    """Whether a rational literal's decimal exponent exceeds Python's limit
    on the digits of an int read from a string (a limit of 0 is none):
    Fraction("1e10000000") would build 10**10000000."""
    _, e, exponent = literal.lower().partition("e")
    digits = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    limit = sys.get_int_max_str_digits()
    return (bool(e and limit and digits.isdecimal())
            and (len(digits) > len(str(limit)) or int(digits) > limit))


def _bounded(q):
    """q, unless its numerator or denominator has more than LITERAL_BITS
    bits."""
    bits = max(q.numerator.bit_length(), q.denominator.bit_length())
    if bits > LITERAL_BITS:
        raise ParseError(f"rational literal with a {bits}-bit numerator or "
                         f"denominator, above the bound of {LITERAL_BITS} "
                         "bits")
    return q


def decode_number(x):
    if isinstance(x, str):
        if _exponent_too_large(x):
            raise ParseError(f"bad rational literal {x[:40]!r}: exponent "
                             f"above {sys.get_int_max_str_digits()}")
        try:
            q = Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational literal {x!r}: {exc}")
        return _bounded(q)
    if isinstance(x, bool):
        raise ParseError(f"expected a number, got {x!r}")
    if isinstance(x, int):
        return _bounded(Fraction(x))
    if isinstance(x, float):
        if not math.isfinite(x):    # json reads NaN and Infinity as floats
            raise ParseError(f"non-finite number {x!r}")
        return x
    raise ParseError(f"expected a number, got {type(x).__name__}")


def decode_count(x, what):
    """A JSON non-negative integer; a bool, float, string or negative
    number is a ParseError."""
    if isinstance(x, bool) or not isinstance(x, int) or x < 0:
        raise ParseError(f"{what} must be a non-negative integer, got {x!r}")
    return x


def encode_matrix(M):
    if isinstance(M, np.ndarray):
        return [[float(x) for x in row] for row in M]
    return [[encode_number(x) for x in row] for row in M]


def decode_matrix(rows, mode):
    if not isinstance(rows, list) or not all(
            isinstance(row, list) and len(row) == len(rows[0])
            for row in rows):
        raise ParseError("a matrix must be a list of rows of equal length")
    out = [[decode_number(x) for x in row] for row in rows]
    if mode == "float":
        return np.array([[float(x) for x in row] for row in out],
                        dtype=float) if out else np.zeros((0, 0))
    for row in out:
        for x in row:
            if not isinstance(x, Fraction):
                raise ParseError("exact mode requires rational entries")
    return out


# --- polynomials -------------------------------------------------------------

def encode_poly(p):
    return {
        "nvars": p.nvars,
        "terms": [{"exponents": list(e), "coefficient": encode_number(c)}
                  for e, c in p.sorted_terms()],
    }


def decode_poly(obj):
    try:
        nvars = decode_count(obj["nvars"], "nvars")
        terms = {}
        for t in obj["terms"]:
            e = tuple(decode_count(k, "exponent") for k in t["exponents"])
            if len(e) != nvars:
                raise ParseError(f"exponent tuple {e} has wrong length")
            if e in terms:
                raise ParseError(f"exponent tuple {e} appears twice")
            terms[e] = decode_number(t["coefficient"])
        return Poly(nvars, terms)
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed polynomial object: {exc}")


# --- top-level documents ------------------------------------------------------

def _require(obj, kind):
    if not isinstance(obj, dict):
        raise ParseError(f"expected a JSON object for kind {kind!r}")
    if obj.get("schema_version") != SCHEMA_VERSION:
        raise ParseError(
            f"unsupported schema_version {obj.get('schema_version')!r}")
    if obj.get("kind") != kind:
        raise ParseError(f"expected kind {kind!r}, got {obj.get('kind')!r}")


def network_to_json(N):
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "network",
        "nodes": [{"id": n, "colour": c} for n, c in N.nodes],
        "edges": [{"id": e, "source": s, "target": t, "colour": c}
                  for e, s, t, c in N.edges],
        "internal_dim": dict(sorted(N.internal_dim.items())),
    }


def network_from_json(obj):
    _require(obj, "network")
    try:
        nodes = [(n["id"], n["colour"]) for n in obj["nodes"]]
        edges = [(e["id"], e["source"], e["target"], e["colour"])
                 for e in obj["edges"]]
        dims = obj.get("internal_dim", {})
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed network object: {exc}")
    if not isinstance(dims, dict):
        raise ParseError("internal_dim must map colours to dimensions")
    for c, d in dims.items():
        decode_count(d, f"internal_dim of colour {c!r}")
    if not nodes:
        raise ParseError("network has no nodes")
    try:
        return ColouredNetwork(nodes, edges, dims or None)
    except ValueError as exc:
        raise ParseError(str(exc))


def representation_to_json(rep):
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "quiver_representation",
        "mode": rep.mode,
        "vertices": [{"id": v, "dim": rep.dim[v]}
                     for v in rep.quiver.vertices],
        "arrows": [{"id": a, "source": s, "target": t,
                    "matrix": encode_matrix(rep.arrow_matrix[a])}
                   for a, s, t in rep.quiver.arrows],
    }


def representation_from_json(obj):
    _require(obj, "quiver_representation")
    try:
        mode = obj["mode"]
        vertices = [v["id"] for v in obj["vertices"]]
        dim = {v["id"]: decode_count(v["dim"], f"dim of vertex {v['id']!r}")
               for v in obj["vertices"]}
        arrows = [(a["id"], a["source"], a["target"]) for a in obj["arrows"]]
        mats = {}
        for a in obj["arrows"]:
            M = decode_matrix(a["matrix"], mode)
            # zero-row matrices lose their column count in JSON; re-shape
            if mode == "float" and M.size == 0 and \
                    dim[a["target"]] * dim[a["source"]] == 0:
                M = M.reshape(dim[a["target"]], dim[a["source"]])
            mats[a["id"]] = M
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed representation object: {exc}")
    if mode not in ("exact", "float"):
        raise ParseError(f"unknown mode {mode!r}")
    quiver = Quiver(vertices, arrows)
    rep = QuiverRepresentation(quiver, dim, mats, mode=mode)
    from .quiver import validate_representation
    errors = validate_representation(rep)
    if errors:
        raise ParseError("; ".join(errors))
    return rep


def tuple_to_json(F):
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "polynomial_tuple",
        "param_dim": F.param_dim,
        "max_degree": F.max_degree,
        "representation": representation_to_json(F.representation),
        "components": {v: [encode_poly(p) for p in pm.outputs]
                       for v, pm in sorted(F.components.items())},
    }


def tuple_from_json(obj):
    _require(obj, "polynomial_tuple")
    try:
        rep = representation_from_json(obj["representation"])
        param_dim = decode_count(obj["param_dim"], "param_dim")
        max_degree = decode_count(obj.get("max_degree", 8), "max_degree")
        comps = {}
        for v in rep.quiver.vertices:
            polys = [decode_poly(p) for p in obj["components"][v]]
            comps[v] = PolyMap(polys, nvars=rep.dim[v] + param_dim)
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed polynomial tuple: {exc}")
    try:
        return PolyMapTuple(rep, comps, param_dim, max_degree)
    except ValueError as exc:
        raise ParseError(str(exc))


def network_map_to_json(pm):
    """A parameter-free total-space map as a network-map document."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "network_map",
        "param_dim": 0,
        "outputs": [encode_poly(p) for p in pm.outputs],
    }


def network_map_from_json(obj):
    _require(obj, "network_map")
    try:
        polys = [decode_poly(p) for p in obj["outputs"]]
        param_dim = decode_count(obj.get("param_dim", 0), "param_dim")
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed network map: {exc}")
    if not polys:
        raise ParseError("network map has no outputs")
    return PolyMap(polys), param_dim


def endomorphism_to_json(L):
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "endomorphism",
        "mode": L.mode,
        "matrices": {v: encode_matrix(L.matrices[v])
                     for v in sorted(L.matrices)},
    }


def endomorphism_from_json(obj, rep):
    _require(obj, "endomorphism")
    from .spectral import EndomorphismTuple
    try:
        mats = {v: decode_matrix(obj["matrices"][v], rep.mode)
                for v in rep.quiver.vertices}
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed endomorphism: {exc}")
    return EndomorphismTuple(rep, mats)


def load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}")


def dump_json(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, ensure_ascii=False)
        fh.write("\n")


def dumps_canonical(obj):
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


# --- polynomial expression language -------------------------------------------

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*$")
_PARAM_RE = re.compile(r"lambda([0-9]*)$")


def parse_poly_dsl(text, param_dim=None):
    """Parse ``name(v1,..,vk) = c*v^e*... + ...`` into (name, vars, Poly).

    State variables are the declared arguments in order; parameter names
    ``lambda`` (or ``lambda1``, ``lambda2``, ...) refer to trailing
    parameter slots. The returned Poly has len(vars) + param_dim variables
    (param_dim inferred from the used parameters when not given).
    """
    if "=" not in text:
        raise ParseError("expected 'name(vars) = expression'")
    head, expr = text.split("=", 1)
    m = re.match(r"\s*([A-Za-z_][A-Za-z_0-9]*)\s*\(([^)]*)\)\s*$", head)
    if not m:
        raise ParseError(f"malformed header {head.strip()!r}")
    name = m.group(1)
    varnames = [v.strip() for v in m.group(2).split(",") if v.strip()]
    for v in varnames:
        if not _NAME_RE.match(v):
            raise ParseError(f"bad variable name {v!r}")
        if _PARAM_RE.match(v):
            raise ParseError(f"variable name {v!r} is reserved for parameters")
    if len(set(varnames)) != len(varnames):
        raise ParseError("duplicate variable names")

    # split the expression into signed terms
    expr = expr.strip()
    if not expr:
        raise ParseError("empty expression")
    stripped = expr.replace(" ", "")
    token = ""
    pieces = []
    for ch in stripped:
        if ch == "+":
            if token:
                pieces.append(token)
            token = ""
        elif ch == "-":
            if token and token != "-":
                pieces.append(token)
            token = "-" if token != "-" else "--"
        else:
            token += ch
    if token:
        pieces.append(token)
    if not pieces:
        raise ParseError("empty expression")

    used_params = set()
    parsed_terms = []
    for piece in pieces:
        sign = Fraction(1)
        body = piece
        while body.startswith("-"):
            sign = -sign
            body = body[1:]
        if not body:
            raise ParseError(f"dangling sign in term {piece!r}")
        coeff = sign
        powers = {}
        for factor in body.split("*"):
            if not factor:
                raise ParseError(f"empty factor in term {piece!r}")
            fm = re.match(r"^([A-Za-z_][A-Za-z_0-9]*)(?:\^([0-9]+))?$", factor)
            if fm:
                vname, exp = fm.group(1), int(fm.group(2) or 1)
                pm = _PARAM_RE.match(vname)
                if pm:
                    idx = int(pm.group(1)) - 1 if pm.group(1) else 0
                    if idx < 0:
                        raise ParseError(f"bad parameter name {vname!r}")
                    used_params.add(idx)
                    powers[("param", idx)] = powers.get(("param", idx), 0) + exp
                elif vname in varnames:
                    j = varnames.index(vname)
                    powers[("var", j)] = powers.get(("var", j), 0) + exp
                else:
                    raise ParseError(f"unknown variable {vname!r}")
                continue
            nm = re.match(r"^([0-9]+(?:/[0-9]+)?|[0-9]*\.[0-9]+)$", factor)
            if nm:
                try:
                    coeff *= Fraction(factor)
                except ZeroDivisionError:
                    raise ParseError(f"division by zero in factor {factor!r}")
                continue
            raise ParseError(f"cannot parse factor {factor!r}")
        if sum(powers.values()) > DEGREE_CAP:
            raise ParseError(f"term {piece!r} has degree "
                             f"{sum(powers.values())} > cap {DEGREE_CAP}")
        parsed_terms.append((coeff, powers))

    p = param_dim if param_dim is not None else (
        max(used_params) + 1 if used_params else 0)
    if used_params and max(used_params) + 1 > p:
        raise ParseError(
            f"expression uses parameter index {max(used_params) + 1} "
            f"but param_dim={p}")
    n = len(varnames) + p
    terms = {}
    for coeff, powers in parsed_terms:
        e = [0] * n
        for key, exp in powers.items():
            kind, idx = key
            pos = idx if kind == "var" else len(varnames) + idx
            e[pos] += exp
        e = tuple(e)
        terms[e] = terms.get(e, Fraction(0)) + coeff
    return name, varnames, Poly(n, {e: c for e, c in terms.items() if c != 0})
