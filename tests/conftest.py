from __future__ import annotations

import gc
from pathlib import Path

import pytest

from clevershopper import CnfFormula, Instance, SimpleGraph, make_instance

DATA_DIR = Path(__file__).parent / "data"

# Five books, five shops, every shop giving 3 off a spend of 10 or more.
# The best plan costs 34: book 1 alone reaches shop 1's threshold, book 2
# does the same at shop 3, books 3 and 4 pair up at shop 4, and book 5 is
# bought at its only shop without any discount.
FIVE_BOOKS_OFFERS = (
    (0, 0, 12),
    (1, 0, 10),
    (1, 1, 9),
    (1, 2, 11),
    (2, 1, 7),
    (2, 2, 4),
    (2, 3, 5),
    (2, 4, 8),
    (3, 3, 8),
    (4, 4, 7),
)


@pytest.fixture
def five_books() -> Instance:
    return make_instance(5, [(3, 10)] * 5, FIVE_BOOKS_OFFERS)


@pytest.fixture(params=[True, False], ids=["gc-enabled", "gc-disabled"])
def gc_enabled(request) -> bool:
    """The cyclic collector switched on or off for the test, as the param
    says, and put back as it was after it."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


@pytest.fixture
def five_books_path() -> Path:
    return DATA_DIR / "five_books.cshop"


@pytest.fixture
def code_graph() -> SimpleGraph:
    # Two triangles sharing an edge, plus a pendant: the ends {0, 4} form a
    # perfect code of size 2.
    return SimpleGraph(5, ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4)))


@pytest.fixture
def twice_cnf() -> CnfFormula:
    # Every literal of x1..x3 occurs exactly twice; exactly 4 clauses.
    return CnfFormula(3, ((1, 2, 3), (1, 2, 3), (-1, -2, -3), (-1, -2, -3)))
