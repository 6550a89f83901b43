"""Exception types shared across the package.

Two families matter to callers: ``InputError`` covers malformed or
out-of-contract data (bad files, input types such as ``Instance`` that
fail their own checks when built, violated solver preconditions) and
maps to CLI exit code 2, while ``ResourceLimitError`` covers instances
that would take a solver past its configured caps on work or memory
and maps to CLI exit code 3.
Nothing in the package tells errors apart below these two, so a raise
site uses a family directly, and a subclass exists only where several
raise sites share its message format.

Messages about a built instance or plan name books and shops as solve
output does (``b1``, ``s1``: 1-based), while raise sites pass 0-based
indices.  A ``ParseError`` reason instead quotes the file's own numbers
("duplicate offer for book 2 at shop 1"), beside the line it is on.
"""

from __future__ import annotations


class CleverShopperError(Exception):
    """Base class for all package-specific errors."""


class InputError(CleverShopperError):
    """Invalid data: bad file, invalid instance, or violated precondition."""


class ResourceLimitError(CleverShopperError):
    """Instance would take a solver past one of its configured caps."""


class NegativeValue(InputError):
    def __init__(self, what: str, value: int):
        super().__init__(f"{what} must be non-negative, got {value}")


class DanglingIndex(InputError):
    def __init__(self, kind: str, index: int, limit: int):
        prefix = {"book": "b", "shop": "s"}.get(kind)
        name = f"{prefix}{index + 1}" if prefix else f"index {index}"
        super().__init__(f"{kind} {name} out of range (have {limit})")


class EmptyInput(InputError):
    def __init__(self, what: str):
        super().__init__(f"{what} must be non-empty")


class ParseError(InputError):
    def __init__(self, line: int | None, reason: str):
        self.line = line
        self.reason = reason
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{reason}")
