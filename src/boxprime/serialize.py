"""Render report rows to CSV and JSON without losing exactness.

Every value in this package is an int, a Fraction, a bool, a string, or
None.  Integers routinely exceed 64 bits, so JSON carries them as decimal
strings; fractions become "p/q" strings in both formats.  Output is a pure
function of the rows, so identical inputs give byte-identical text.
"""

from __future__ import annotations

from fractions import Fraction


def render_cell(value) -> str:
    """CSV text for one cell.  None is the empty cell."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def rows_to_csv(rows, columns) -> str:
    """Header line plus one line per row, newline terminated; every row
    must supply every column."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(render_cell(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def json_ready(value):
    """One row cell as a JSON-safe primitive."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, Fraction)):
        return str(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def rows_to_json(rows, columns) -> str:
    """JSON array of row objects, keys in column order, newline terminated."""
    import json  # only --format json needs it, so a cold CSV run skips it
    payload = [{c: json_ready(row[c]) for c in columns} for row in rows]
    return json.dumps(payload, indent=2) + "\n"
