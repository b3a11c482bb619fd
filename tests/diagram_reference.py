"""The diagram parser as it was before the one-pass intake, the reference for it.

`zeroone.perms.parse_diagram` compares each label with its expected text
before it reads the label as a numeral.  This is the parser it replaced, kept
as it was, so the tests can check that both read every text alike, errors
included.
"""

from zeroone.perms import Diagram, _is_numeral


def parse_diagram(text: str) -> Diagram:
    """Parse the one-line-per-column format emitted by Diagram.__str__."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty diagram text")
    cols = []
    for expected_j, line in enumerate(lines, start=1):
        head, _, tail = line.partition(":")
        if not _is_numeral(head.strip()) or int(head) != expected_j:
            raise ValueError(f"expected column label {expected_j} in line {line!r}")
        rows = tail.split()
        # split() yields nonempty fields, so one test of their concatenation covers each
        if rows and not _is_numeral("".join(rows)):
            raise ValueError(f"bad row indices in line {line!r}")
        cols.append(tuple(map(int, rows)))
    return Diagram(tuple(cols))
