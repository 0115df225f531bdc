"""The line classifier that ``holtrans.opentheory.parse_article`` replaced.

It strips a trailing carriage return from each line, skips blank and
comment lines, and then tests for a string, a number and a keyword in that
order.  It is kept as the oracle of the differential test in
``test_opentheory.py``: the parser must give the same commands on the same
lines, or the same exception class and message.
"""

import re
from typing import Union

from holtrans.opentheory import (
    _HANDLERS,
    ArticleError,
    Keyword,
    UnknownCommand,
    _parse_quoted,
)

_INT_RE = re.compile(r"-?[0-9]+\Z")


def parse_article(data: Union[str, bytes]) -> list:
    """One command per non-comment line; ``#`` lines and blank lines are skipped."""
    try:
        text = data.decode("utf-8-sig") if isinstance(data, bytes) else data
    except UnicodeDecodeError as e:
        at = e.start + len(data) - len(e.object)  # utf-8-sig counts from after a byte-order mark
        raise ArticleError(f"not UTF-8: byte 0x{data[at]:02x} at offset {at}") from None
    commands: list = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip("\r")
        if not line.strip() or line.startswith("#"):
            continue
        if line.startswith('"'):
            commands.append(_parse_quoted(line, lineno))
        elif _INT_RE.match(line):
            commands.append(int(line))
        elif line in _HANDLERS:  # the keywords
            commands.append(Keyword(line, lineno))
        else:
            raise UnknownCommand(f"line {lineno}: unknown command {line!r}")
    return commands
