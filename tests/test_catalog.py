"""Catalog entries: construction, parameter guards, live fact verification."""

from fractions import Fraction

import pytest

from conftest import h9, h15, jst, n10
from reference import verify_entry
from nilcx.catalog import (
    CatalogEntry,
    brackets_from_differentials,
    differentials_from_brackets,
    get,
    standard_pairing,
)
from nilcx.cli import main
from nilcx.errors import SelfCheckError, ValidationError
from nilcx.scalars import gr


def test_names_listing(capsys):
    # `nilcx catalog` lists every name, and each name fetches its entry
    assert main(["catalog"]) == 0
    listed = tuple(line.split()[0] for line in capsys.readouterr().out.splitlines())
    assert listed == ("h9", "h15", "n10", "torus")
    params = {"n10": {"s": 1, "t": 0}, "torus": {"n": 2}}
    assert all(get(name, **params.get(name, {})).name == name for name in listed)


def test_six_dimensional_entries_match_raw_transcriptions():
    assert get("h9").algebra.bracket_table() == h9().bracket_table()
    assert get("h15").algebra.bracket_table() == h15().bracket_table()


def test_n10_brackets_agree_with_independent_transcription():
    # catalog path goes through the differential tables, conftest entered
    # brackets directly; both must land on the same structure constants
    entry = get("n10", s=1, t=Fraction(1, 2))
    assert entry.algebra.bracket_table() == n10().bracket_table()


def test_n10_structure_matches_direct_construction():
    for s, t in [(1, 0), (2, 1), (Fraction(1, 2), Fraction(1, 3))]:
        entry = get("n10", s=s, t=t)
        assert entry.structures[0][1] == jst(s, t)
        assert entry.params == (Fraction(s), Fraction(t))


def test_verify_h9():
    live = verify_entry(get("h9"))
    assert live["step"] == 3
    assert live["center_dim"] == 2
    assert live["h1_dim"] == 3
    assert live["locus_dim"] == 3
    assert live["J"] == {"integrable": True, "abelian": True, "nilpotent": True}


def test_verify_h15():
    live = verify_entry(get("h15"))
    assert live["h1_dim"] == 5
    assert live["locus_dim"] == 3


def test_verify_n10_instances():
    live = verify_entry(get("n10", s=1, t=0))
    assert live["dim"] == 10
    assert live["step"] == 2
    assert live["center_dim"] == 4
    assert live["J"]["abelian"]
    live = verify_entry(get("n10", s=1, t=Fraction(1, 2)))
    assert live["J"] == {"integrable": True, "abelian": False, "nilpotent": True}


def test_verify_torus_sizes():
    for n in (1, 2, 3):
        live = verify_entry(get("torus", n=n))
        assert live["dim"] == 2 * n
        assert live["step"] == 1
        assert live["h1_dim"] == n * n
        assert live["locus_dim"] == n * n


def test_degenerate_parameters_rejected():
    for s, t in [(1, 1), (2, -2), (0, 0)]:
        with pytest.raises(ValidationError, match="rejected"):
            get("n10", s=s, t=t)


def test_parameter_rationality_enforced():
    with pytest.raises(ValidationError, match="s must be rational"):
        get("n10", s=0.5, t=0)
    with pytest.raises(ValidationError, match="t must be rational"):
        get("n10", s=1, t="x")
    with pytest.raises(ValidationError, match="s must be rational"):
        get("n10", s=gr(1, 1), t=0)
    for s, t in [("1/3", "1/7"), (Fraction(1, 3), Fraction(2, 14)), (gr("1/3"), "2/14")]:
        entry = get("n10", s=s, t=t)
        assert entry.params == (Fraction(1, 3), Fraction(1, 7))
        assert hash(entry.params) == hash((Fraction(1, 3), Fraction(1, 7)))


def test_n10_requires_parameters():
    with pytest.raises(ValidationError):
        get("n10")
    with pytest.raises(ValidationError):
        get("n10", s=1)


def test_torus_parameter_guard():
    for bad in (0, -2, "3", None):
        with pytest.raises(ValidationError):
            get("torus", n=bad)


def test_unknown_name():
    with pytest.raises(ValidationError, match="unknown catalog name"):
        get("h10")


def test_differential_helpers_invert_each_other():
    table = get("n10", s=1, t=0).algebra.bracket_table()
    diffs = differentials_from_brackets(get("n10", s=1, t=0).algebra)
    assert brackets_from_differentials(10, diffs) == table


def test_a_failed_round_trip_names_the_differential(monkeypatch):
    import nilcx.catalog as catalog

    real = catalog.differentials_from_brackets

    def dropped(algebra):
        # de4 loses its e2^e7 term on the way back
        out = real(algebra)
        del out[4][(2, 7)]
        return out

    monkeypatch.setattr(catalog, "differentials_from_brackets", dropped)
    with pytest.raises(SelfCheckError) as info:
        get("n10", s=1, t=0)
    assert str(info.value) == (
        "differential round trip failed for n10 at de4: the table gives "
        "(-1)*e1^e2 + (1)*e1^e3 + (1)*e2^e7, the brackets give (-1)*e1^e2 + (1)*e1^e3"
    )


def test_standard_pairing_needs_even_dimension():
    with pytest.raises(ValidationError):
        standard_pairing(5)


def test_verify_catches_stale_facts():
    good = get("h9")
    tampered = CatalogEntry(
        name=good.name,
        algebra=good.algebra,
        structures=good.structures,
        facts=dict(good.facts, h1_dim=4),
        structure_facts=good.structure_facts,
    )
    with pytest.raises(SelfCheckError, match="stale fact h1_dim"):
        verify_entry(tampered)


def test_verify_catches_stale_structure_facts():
    good = get("h15")
    tampered = CatalogEntry(
        name=good.name,
        algebra=good.algebra,
        structures=good.structures,
        facts=good.facts,
        structure_facts={"J": dict(good.structure_facts["J"], abelian=False)},
    )
    with pytest.raises(SelfCheckError, match="stale fact J.abelian"):
        verify_entry(tampered)
