"""The text format every artifact file shares.

Floats print with %.17g, which round-trips float64 exactly.  Readers walk
the nonblank lines of a file with their 1-based numbers, and build what a
line holds inside at(where), so any ValueError raised on the way (a bad
cell, a wrong width, a constructor's own check) names that line.
"""

import contextlib


def fmt(values, sep: str = ",") -> str:
    """values joined by sep, each float printed exactly."""
    return sep.join(["%.17g" % v for v in values])


def write_lines(path, lines) -> None:
    with open(path, "w") as fh:
        fh.writelines(line + "\n" for line in lines)


def numbered(path, skip_comments: bool = True):
    """(f"{path}:{lineno}", stripped line) for every nonblank line, and
    for no line starting with # when skip_comments is set."""
    with open(path) as fh, at(path):
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line and not (skip_comments and line.startswith("#")):
                yield f"{path}:{lineno}", line


@contextlib.contextmanager
def at(where):
    """Re-raise a ValueError from the block with where in front of it."""
    try:
        yield
    except ValueError as err:
        raise ValueError(f"{where}: {err}") from err


def floats(cells, n: int) -> list:
    """The n cells as floats, or ValueError on a wrong count or a bad cell."""
    if len(cells) != n:
        raise ValueError(f"expected {n} fields, got {len(cells)}")
    return [float(cell) for cell in cells]


def key_value(line: str, seen):
    """(key, value) of a key=value line, both stripped; a key in seen is repeated."""
    if "=" not in line:
        raise ValueError(f"expected key=value, got {line!r}")
    key, value = (part.strip() for part in line.split("=", 1))
    if key in seen:
        raise ValueError(f"key {key!r} repeated")
    return key, value
