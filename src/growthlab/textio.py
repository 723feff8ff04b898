"""Text formats for groups, sets, and reports.

Grammar for group descriptors (used by recipes and the command line):

    ab:<m1>,<m2>,...        product of cyclic groups; modulus 0 is a copy of Z
    ut:<n>:<m>              n x n unitriangular matrices, entries mod m (0 = Z)
    prod:(<spec>);(<spec>)  direct product of the wrapped descriptors

A product is its parenthesised factors joined by ';' and nothing else.  A
descriptor has at most MAX_ARITY coordinates: ab: one per modulus, ut:n
n(n-1)/2, prod: the sum of its factors'.

Sets serialise to plain JSON objects; reports are emitted as deterministic
JSON (sorted keys, fixed indentation) or as flat CSV with a fixed column
order, so reruns of a seeded scenario are byte-identical.
"""
from __future__ import annotations

import csv
import io
import json

from .errors import FormatError
from .groups import DirectProduct, FiniteAbelian, Unitriangular
from .gset import GSet

# Most coordinates a descriptor may have, ut:8's 28.  Products, coordinate
# quotients and ut:n compile a law whose cost grows with the arity (about
# 0.1 s at 1,000); a wider descriptor is refused before anything is built.
MAX_ARITY = 28


def parse_group(text: str):
    """Build a group backend from its descriptor string."""
    text = text.strip()
    if text.startswith("ab:"):
        body = text[3:]
        try:
            return _capped(FiniteAbelian(tuple(int(p) for p in body.split(","))), text)
        except ValueError as e:
            raise FormatError(f"bad abelian moduli in {text!r}: {e}")
    if text.startswith("ut:"):
        parts = text[3:].split(":")
        if len(parts) != 2:
            raise FormatError(f"unitriangular descriptor needs ut:<n>:<m>, got {text!r}")
        try:
            n, m = int(parts[0]), int(parts[1])
        except ValueError as e:
            raise FormatError(f"bad unitriangular parameters in {text!r}: {e}")
        if n > 1 and n * (n - 1) // 2 > MAX_ARITY:
            raise FormatError(f"{text!r} has {n * (n - 1) // 2} coordinates, above the limit {MAX_ARITY}")
        try:
            return Unitriangular(n, m)
        except ValueError as e:
            raise FormatError(f"bad unitriangular parameters in {text!r}: {e}")
    if text.startswith("prod:"):
        body = text[5:]
        parts = _split_wrapped(body, text)
        factors: list = []
        for part in parts:
            f = parse_group(part)
            # Direct products are kept flat, so nested descriptors splice in.
            factors.extend(f.factors if isinstance(f, DirectProduct) else (f,))
        if len(factors) < 2:
            raise FormatError(f"product descriptor needs at least two factors, got {text!r}")
        try:
            return _capped(DirectProduct(tuple(factors)), text)
        except ValueError as e:
            raise FormatError(f"bad product descriptor {text!r}: {e}")
    raise FormatError(f"unknown group descriptor {text!r}")


def _capped(G, text: str):
    if G.arity > MAX_ARITY:
        raise FormatError(f"{text!r} has {G.arity} coordinates, above the limit {MAX_ARITY}")
    return G


def _split_wrapped(body: str, original: str) -> list[str]:
    """The factors of '(f);(f);…', honouring nesting.  Outside the
    parentheses a '(' opens the body or follows ';', a ';' follows ')', and
    the body ends with ')'; any other text there is refused."""
    bad = FormatError(f"product descriptor needs (..);(..) factors, got {original!r}")
    parts: list[str] = []
    depth = start = 0
    for i, ch in enumerate(body):
        if depth == 0 and ch != ("(" if i == 0 or body[i - 1] == ";" else ";"):
            raise bad
        if ch == "(":
            depth += 1
            if depth == 1:
                start = i + 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                parts.append(body[start:i])
    if depth or not body.endswith(")"):
        raise bad
    return parts


def format_group(parent) -> str:
    """Descriptor string for a backend; inverse of parse_group."""
    if isinstance(parent, FiniteAbelian):
        return "ab:" + ",".join(str(m) for m in parent.moduli)
    if isinstance(parent, Unitriangular):
        return f"ut:{parent.n}:{parent.modulus}"
    if isinstance(parent, DirectProduct):
        return "prod:" + ";".join(f"({format_group(f)})" for f in parent.factors)
    raise FormatError(f"no descriptor for {parent!r}")


def parse_coords(text: str) -> tuple[int, ...]:
    """One element's coordinates from '1,0,-2'."""
    try:
        return tuple(int(p) for p in text.strip().split(","))
    except ValueError:
        raise FormatError(f"bad coordinates {text!r}")


def parse_coord_list(text: str) -> list[tuple[int, ...]]:
    """'|'-separated coordinate tuples, e.g. '1,0|0,1'."""
    return [parse_coords(part) for part in text.split("|") if part.strip()]


def set_to_obj(A: GSet) -> dict:
    return {
        "group": format_group(A.parent),
        "size": len(A),
        "members": [list(c) for c in A.sorted_members()],
    }


def dumps_json(obj) -> str:
    """Deterministic JSON text: sorted keys, two-space indent, newline end."""
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def dumps_csv(rows, header) -> str:
    """CSV text with a header row and a fixed column order."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def write_text(text: str, out: str | None) -> None:
    """Write to a path, or stdout when no path is given."""
    if out is None:
        print(text, end="")
    else:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as e:
            raise FormatError(f"cannot write {out!r}: {e.strerror}")
