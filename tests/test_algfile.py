"""Text format for algebras: parsing, rendering, round trips, error positions."""

import re
from fractions import Fraction
from importlib import resources

import cli_sweep
import pytest

from nilcx.algfile import parse_text
from nilcx.catalog import get, render, render_entry
from nilcx.errors import ParseError, ValidationError
from nilcx.lie import validate_lie


def roundtrip(entry):
    return parse_text(render_entry(entry))


def test_round_trip_h9():
    entry = get("h9")
    back = roundtrip(entry)
    assert back.name == "h9"
    assert back.algebra.bracket_table() == entry.algebra.bracket_table()
    assert back.structures == entry.structures


def test_round_trip_h15():
    entry = get("h15")
    back = roundtrip(entry)
    assert back.algebra.bracket_table() == entry.algebra.bracket_table()
    assert back.structures == entry.structures


def test_round_trip_n10_with_fractional_entries():
    entry = get("n10", s=1, t=Fraction(1, 2))
    back = roundtrip(entry)
    assert back.algebra.bracket_table() == entry.algebra.bracket_table()
    assert back.structures[0][0] == "J"
    assert back.structures[0][1] == entry.structures[0][1]


def test_round_trip_torus():
    back = roundtrip(get("torus", n=2))
    assert back.algebra.bracket_table() == {}
    assert back.algebra.dim == 4


def test_shipped_files_match_catalog():
    for name in ("h9", "h15"):
        text = (resources.files("nilcx") / "data" / f"{name}.alg").read_text()
        parsed = parse_text(text)
        entry = get(name)
        assert parsed.name == name
        assert parsed.algebra.bracket_table() == entry.algebra.bracket_table()
        assert parsed.structures == entry.structures
        # shipped files are rendered from the catalog, byte for byte
        assert text == render_entry(entry)


def test_render_is_deterministic():
    entry = get("n10", s=2, t=1)
    assert render_entry(entry) == render_entry(entry)
    text = render_entry(entry)
    assert render(parse_text(text).name, parse_text(text).algebra,
                  parse_text(text).structures) == text


def test_whitespace_and_comments_tolerated():
    text = """
# a three dimensional example
algebra   demo

dim 3   # comment after a value
bracket   e1   e2   =   1*e3
"""
    parsed = parse_text(text)
    assert parsed.name == "demo"
    assert parsed.algebra.dim == 3
    assert parsed.algebra.bracket_table() == {(1, 2): {3: Fraction(1)}}


def test_fractional_and_multi_term_brackets():
    text = "algebra demo\ndim 4\nbracket e1 e2 = 1/2*e3 + -2/3*e4\n"
    table = parse_text(text).algebra.bracket_table()
    assert table == {(1, 2): {3: Fraction(1, 2), 4: Fraction(-2, 3)}}


def test_empty_bracket_list_is_abelian():
    parsed = parse_text("algebra flat\ndim 4\n")
    assert parsed.algebra.bracket_table() == {}
    assert validate_lie(parsed.algebra).step == 1


def test_partial_pairing_block_completes():
    text = (
        "algebra flat\ndim 6\n"
        "structure J\n"
        "J e1 = 1*e2\n"
        "J e3 = 1*e4\n"
        "J e5 = 1*e6\n"
    )
    parsed = parse_text(text)
    assert parsed.structures[0][1].matrix == get("torus", n=3).structures[0][1].matrix


def test_incomplete_structure_rejected():
    text = "algebra flat\ndim 4\nstructure J\nJ e1 = 1*e2\n"
    with pytest.raises(ValidationError, match=r"^structure J \(line 3\): J images incomplete$"):
        parse_text(text)


def test_inconsistent_structure_rejected():
    text = "algebra flat\ndim 2\nstructure J\nJ e1 = 1*e1\n"
    with pytest.raises(ValidationError, match=r"^structure J \(line 3\): J images inconsistent$"):
        parse_text(text)


def test_empty_structure_block_rejected():
    text = "algebra flat\ndim 2\nstructure J\n"
    with pytest.raises(ValidationError, match="has no J lines"):
        parse_text(text)


def test_structure_needs_even_dimension():
    text = "algebra odd\ndim 3\nstructure J\nJ e1 = 1*e2\n"
    with pytest.raises(ValidationError):
        parse_text(text)


def test_non_nilpotent_file_rejected():
    text = "algebra sl2ish\ndim 2\nbracket e1 e2 = 1*e1\n"
    with pytest.raises(ValidationError, match="fails validation"):
        parse_text(text)


def err(text):
    with pytest.raises(ParseError) as info:
        parse_text(text)
    return info.value


def test_error_positions():
    e = err("dim 3\n")
    assert (e.line, e.col) == (1, 1)
    assert "algebra" in e.message

    e = err("algebra a\nalgebra b\n")
    assert (e.line, e.col) == (2, 1)

    e = err("algebra a\ndim 3\ndim 4\n")
    assert (e.line, e.col) == (3, 1)

    e = err("algebra a\nbracket e1 e2 = 1*e3\n")
    assert (e.line, e.col) == (2, 1)

    e = err("algebra a\ndim 3\nbracket e2 e1 = 1*e3\n")
    assert (e.line, e.col) == (3, 9)
    assert "i < j" in e.message

    e = err("algebra a\ndim 3\nbracket e1 e2 = 1*e9\n")
    assert (e.line, e.col) == (3, 19)
    assert "out of range" in e.message

    e = err("algebra a\ndim 3\nbracket e1 e2 = 1*e3 + 2*e3\n")
    assert (e.line, e.col) == (3, 26)
    assert "repeated" in e.message

    e = err("algebra a\ndim 3\nbracket e1 e2 = oops\n")
    assert (e.line, e.col) == (3, 17)
    assert "term" in e.message

    e = err("algebra a\ndim 3\nbracket e1 e2 = 1*e3 1*e3\n")
    assert (e.line, e.col) == (3, 22)
    assert "'+'" in e.message


def test_error_columns_point_at_the_token_that_broke_the_rule():
    """Every parse error of the sweep's error files has a column on its line
    or one past its end; one on the line is not a blank, and an index out of
    range points at that index."""
    raised = 0
    for stem, text in cli_sweep.ERROR_FILES.items():
        try:
            parse_text(text)
        except ParseError as e:
            line = text.splitlines()[e.line - 1]
            raised += 1
            assert 1 <= e.col <= len(line) + 1, f"{stem}: col {e.col} of {line!r}"
            if e.col <= len(line):
                assert not line[e.col - 1].isspace(), f"{stem}: col {e.col} of {line!r} is a blank"
            if e.message == "vector index out of range":
                dim = int(re.search(r"^dim (\d+)$", text, re.M).group(1))
                token = line[e.col - 1 :].split()[0]
                assert re.fullmatch(r"e\d+", token) and int(token[1:]) > dim, f"{stem}: {token}"
        except ValidationError:
            pass
    assert raised == 26


def test_duplicate_bracket_line_rejected():
    e = err("algebra a\ndim 3\nbracket e1 e2 = 1*e3\nbracket e1 e2 = 2*e3\n")
    assert e.line == 4
    assert "duplicate" in e.message


def test_bracket_after_structure_rejected():
    text = (
        "algebra a\ndim 2\nstructure J\nJ e1 = 1*e2\n"
        "bracket e1 e2 = 1*e1\n"
    )
    e = err(text)
    assert e.line == 5


def test_j_line_outside_structure_block():
    e = err("algebra a\ndim 2\nJ e1 = 1*e2\n")
    assert e.line == 3


def test_duplicate_structure_name():
    text = (
        "algebra a\ndim 2\n"
        "structure J\nJ e1 = 1*e2\n"
        "structure J\nJ e1 = -1*e2\n"
    )
    e = err(text)
    assert e.line == 5


def test_repeated_j_image_rejected():
    text = "algebra a\ndim 2\nstructure J\nJ e1 = 1*e2\nJ e1 = -1*e2\n"
    e = err(text)
    assert e.line == 5
    assert "repeated" in e.message


def test_unknown_keyword():
    e = err("algebra a\ndim 2\nfrobnicate e1\n")
    assert e.line == 3
    assert "unknown" in e.message


def test_zero_denominator_names_line_and_column():
    e = err("algebra a\ndim 3\nbracket e1 e2 = 1*e1 + 1/0*e3\n")
    assert (e.line, e.col) == (3, 24)
    assert "zero denominator" in e.message
    e = err("algebra a\ndim 2\nstructure J\nJ e1 = 2/0*e2\n")
    assert (e.line, e.col) == (4, 8)
