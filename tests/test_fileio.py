from __future__ import annotations

import pytest

from clevershopper import (
    CnfFormula,
    DanglingIndex,
    InputError,
    ParseError,
    SimpleGraph,
    brute_force_min_cost,
    parse_dimacs,
    parse_graph,
    parse_instance,
    parse_solution,
    parse_weights,
    random_instance,
    serialize_instance,
    serialize_solution,
    check_solution,
)


class TestParseInstance:
    def test_file_fixture_round_trips(self, five_books, five_books_path):
        parsed = parse_instance(five_books_path.read_text())
        assert parsed == five_books

    def test_comments_and_blank_lines_ignored(self):
        text = (
            "# leading comment\n"
            "\n"
            "CLEVERSHOP 1\n"
            "BOOKS 1\n"
            "SHOPS 1  # trailing comment\n"
            "SHOP 1 0 0\n"
            "OFFER 1 1 3\n"
        )
        inst = parse_instance(text)
        assert inst.num_books == 1
        assert inst.offers[0].price == 3

    def test_empty_input(self):
        with pytest.raises(ParseError) as exc:
            parse_instance("# nothing here\n")
        assert exc.value.line is None

    def test_bad_header(self):
        with pytest.raises(ParseError) as exc:
            parse_instance("CLEVERSHOP 2\nBOOKS 1\nSHOPS 1\nSHOP 1 0 0\n")
        assert exc.value.line == 1

    def test_offer_shop_out_of_range_names_line(self):
        text = (
            "CLEVERSHOP 1\n"
            "BOOKS 2\n"
            "SHOPS 5\n"
            + "".join(f"SHOP {s} 1 1\n" for s in range(1, 6))
            + "OFFER 1 9 4\n"
        )
        with pytest.raises(ParseError) as exc:
            parse_instance(text)
        assert exc.value.line == 9
        assert "9" in exc.value.reason

    def test_duplicate_shop_line(self):
        text = "CLEVERSHOP 1\nBOOKS 1\nSHOPS 1\nSHOP 1 0 0\nSHOP 1 2 3\nOFFER 1 1 1\n"
        with pytest.raises(ParseError) as exc:
            parse_instance(text)
        assert exc.value.line == 5

    def test_duplicate_offer_line(self):
        text = "CLEVERSHOP 1\nBOOKS 1\nSHOPS 1\nSHOP 1 0 0\nOFFER 1 1 1\nOFFER 1 1 2\n"
        with pytest.raises(ParseError):
            parse_instance(text)

    def test_duplicate_budget_line(self):
        text = (
            "CLEVERSHOP 1\nBOOKS 1\nSHOPS 1\nSHOP 1 0 0\nOFFER 1 1 1\n"
            "BUDGET 4\nBUDGET 5\n"
        )
        with pytest.raises(ParseError):
            parse_instance(text)

    def test_missing_shop_line(self):
        text = "CLEVERSHOP 1\nBOOKS 1\nSHOPS 2\nSHOP 1 0 0\nOFFER 1 1 1\n"
        with pytest.raises(ParseError) as exc:
            parse_instance(text)
        assert "shop 2" in exc.value.reason

    def test_unknown_directive(self):
        text = "CLEVERSHOP 1\nBOOKS 1\nSHOPS 1\nSHOP 1 0 0\nOFFER 1 1 1\nPRICE 9\n"
        with pytest.raises(ParseError) as exc:
            parse_instance(text)
        assert exc.value.line == 6

    def test_non_integer_field(self):
        text = "CLEVERSHOP 1\nBOOKS one\nSHOPS 1\n"
        with pytest.raises(ParseError) as exc:
            parse_instance(text)
        assert exc.value.line == 2

    def test_negative_price_rejected(self):
        text = "CLEVERSHOP 1\nBOOKS 1\nSHOPS 1\nSHOP 1 0 0\nOFFER 1 1 -2\n"
        with pytest.raises(ParseError):
            parse_instance(text)

    def test_budget_parsed(self):
        text = "CLEVERSHOP 1\nBOOKS 1\nSHOPS 1\nSHOP 1 0 0\nOFFER 1 1 1\nBUDGET 7\n"
        assert parse_instance(text).budget == 7


class TestSerializeInstance:
    def test_canonical_shape(self, five_books):
        text = serialize_instance(five_books)
        lines = text.splitlines()
        assert lines[0] == "CLEVERSHOP 1"
        assert lines[1] == "BOOKS 5"
        assert lines[2] == "SHOPS 5"
        assert lines[3] == "SHOP 1 3 10"
        assert lines[8] == "OFFER 1 1 12"
        assert text.endswith("\n")
        assert "BUDGET" not in text

    def test_budget_written_last(self, five_books):
        from dataclasses import replace

        inst = replace(five_books, budget=34)
        assert serialize_instance(inst).splitlines()[-1] == "BUDGET 34"

    def test_round_trip_identity(self):
        for seed in range(200):
            inst = random_instance(
                1 + seed % 7, 1 + seed % 5, max_price=9, seed=seed
            )
            assert parse_instance(serialize_instance(inst)) == inst

    def test_byte_determinism(self, five_books):
        a = serialize_instance(five_books)
        b = parse_instance(a)
        assert serialize_instance(b) == a
        assert serialize_instance(five_books) == a


class TestSolutionFiles:
    def test_round_trip(self, five_books):
        result = brute_force_min_cost(five_books)
        text = serialize_solution(result)
        assigns, declared = parse_solution(text)
        assert declared == 34
        assert assigns == {b: s for b, s in enumerate(result.choice)}

    def test_serialized_shape(self, five_books):
        text = serialize_solution(brute_force_min_cost(five_books))
        lines = text.splitlines()
        assert lines[0] == "ASSIGN 1 1"
        assert lines[-1] == "COST 34"

    def test_duplicate_assign(self):
        with pytest.raises(ParseError) as exc:
            parse_solution("ASSIGN 1 1\nASSIGN 1 2\nCOST 5\n")
        assert exc.value.line == 2

    def test_duplicate_cost(self):
        with pytest.raises(ParseError):
            parse_solution("ASSIGN 1 1\nCOST 5\nCOST 6\n")

    def test_missing_cost(self):
        with pytest.raises(ParseError) as exc:
            parse_solution("ASSIGN 1 1\n")
        assert exc.value.line is None

    def test_zero_based_ids_rejected(self):
        with pytest.raises(ParseError):
            parse_solution("ASSIGN 0 1\nCOST 5\n")


class TestCheckSolution:
    def solution_text(self, five_books) -> str:
        return serialize_solution(brute_force_min_cost(five_books))

    def test_matching_declaration(self, five_books):
        result, declared = check_solution(five_books, self.solution_text(five_books))
        assert result == brute_force_min_cost(five_books)
        assert result.total_cost == 34
        assert declared == 34

    def test_declared_mismatch_reported(self, five_books):
        text = self.solution_text(five_books).replace("COST 34", "COST 33")
        result, declared = check_solution(five_books, text)
        assert result.total_cost == 34
        assert declared == 33

    def test_missing_book(self, five_books):
        text = "ASSIGN 1 1\nCOST 12\n"
        with pytest.raises(InputError, match="the solution assigns book b2 to no shop"):
            check_solution(five_books, text)

    def test_unknown_book_rejected(self, five_books):
        text = self.solution_text(five_books) + "ASSIGN 6 1\n"
        with pytest.raises(DanglingIndex):
            check_solution(five_books, text)


class TestParseGraph:
    def test_basic(self):
        g = parse_graph("5\n1 2\n2 3\n# comment\n4 5\n")
        assert g == SimpleGraph(5, ((0, 1), (1, 2), (3, 4)))

    def test_no_edges(self):
        assert parse_graph("3\n") == SimpleGraph(3, ())

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_graph("")

    def test_self_loop(self):
        with pytest.raises(ParseError) as exc:
            parse_graph("3\n2 2\n")
        assert exc.value.line == 2

    def test_duplicate_edge(self):
        with pytest.raises(ParseError):
            parse_graph("3\n1 2\n2 1\n")

    def test_vertex_out_of_range(self):
        with pytest.raises(ParseError):
            parse_graph("3\n1 4\n")


class TestParseWeights:
    @pytest.mark.parametrize(
        "text, want",
        [
            ("1 2 3", (1, 2, 3)),
            ("1,2,3", (1, 2, 3)),
            ("1, 2,\n3", (1, 2, 3)),
            ("", ()),
        ],
    )
    def test_formats(self, text, want):
        assert parse_weights(text) == want

    def test_non_integer(self):
        with pytest.raises(ParseError):
            parse_weights("1 two 3")


class TestParseDimacs:
    TEXT = (
        "c exactly-twice example\n"
        "p cnf 3 4\n"
        "1 2 3 0\n"
        "1 2 3 0\n"
        "-1 -2 -3 0\n"
        "-1 -2 -3 0\n"
    )

    def test_basic(self, twice_cnf):
        assert parse_dimacs(self.TEXT) == twice_cnf

    def test_percent_terminator(self):
        cnf = parse_dimacs("p cnf 3 1\n1 2 3 0\n%\n0\njunk after terminator\n")
        assert cnf == CnfFormula(3, ((1, 2, 3),))

    def test_multiline_clause(self):
        cnf = parse_dimacs("p cnf 3 1\n1 2\n3 0\n")
        assert cnf == CnfFormula(3, ((1, 2, 3),))

    def test_missing_problem_line(self):
        with pytest.raises(ParseError):
            parse_dimacs("1 2 3 0\n")

    def test_duplicate_problem_line(self):
        with pytest.raises(ParseError):
            parse_dimacs("p cnf 3 1\np cnf 3 1\n1 2 3 0\n")

    def test_wrong_clause_width(self):
        with pytest.raises(ParseError) as exc:
            parse_dimacs("p cnf 3 1\n1 2 0\n")
        assert "2 literals" in exc.value.reason

    def test_unterminated_clause(self):
        with pytest.raises(ParseError):
            parse_dimacs("p cnf 3 1\n1 2 3\n")

    def test_clause_count_mismatch(self):
        with pytest.raises(ParseError):
            parse_dimacs("p cnf 3 2\n1 2 3 0\n")


ONE_BOOK = "CLEVERSHOP 1\nBOOKS 1\nSHOPS 1\n"


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_instance, "CLEVERSHOP 1\n", "missing BOOKS line"),
        (parse_instance, "CLEVERSHOP 1\nBOOKS 1\n", "missing SHOPS line"),
        (parse_instance, "CLEVERSHOP 1\nBOOKS -1\nSHOPS 1\n",
         "line 2: BOOKS count must be non-negative"),
        (parse_instance, ONE_BOOK + "SHOP 1 -1 0\n",
         "line 4: discount and threshold must be non-negative"),
        (parse_instance, ONE_BOOK + "SHOP 1 0 0\nOFFER 1 1 1\nBUDGET 1 2\n",
         "line 6: expected 'BUDGET <value>'"),
        (parse_solution, "ASSIGN 1 1\nCOST 1 2\n", "line 2: expected 'COST <value>'"),
        (parse_solution, "COST 1\nPAY 1\n", "line 2: unknown directive 'PAY'"),
        (parse_graph, "3 1\n", "line 1: expected a single vertex count"),
        (parse_graph, "-1\n", "line 1: vertex count must be non-negative"),
        (parse_graph, "3\n1 2 3\n", "line 2: expected 'u v'"),
        (parse_dimacs, "p cnf 3\n", "line 1: expected 'p cnf <vars> <clauses>'"),
        (parse_dimacs, "c no problem line\n", "missing problem line"),
    ],
    ids=[
        "books-missing", "shops-missing", "count-negative", "rule-negative",
        "budget-arity", "cost-arity", "solution-directive", "graph-header",
        "graph-negative", "graph-edge-arity", "dimacs-problem-line", "dimacs-missing",
    ],
)
def test_parse_error_messages(parse, text, message):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value) == message
