"""Catalog construction, group-spec parsing, and persistence."""
import pytest

from classlab import structure, universe
from classlab.config import DEFAULT_CAPS, Caps
from classlab.errors import InvalidInput, ParseError
from classlab.structure import fingerprint, has_prime_order_quotient, isomorphic
from classlab.universe import (
    alternating,
    build_universe,
    cyclic,
    default_extras,
    dihedral,
    load_catalog,
    parse_group_spec,
    quaternion,
    recognize_name,
    save_catalog,
    special_linear,
    symmetric,
)


class TestConstructors:
    def test_orders(self):
        assert cyclic(1).order() == 1
        assert cyclic(12).order() == 12
        assert symmetric(4).order() == 24
        assert symmetric(2).order() == 2
        assert alternating(4).order() == 12
        assert alternating(5).order() == 60
        assert alternating(6).order() == 360
        assert alternating(7).order() == 2520
        assert dihedral(8).order() == 8
        assert dihedral(12).order() == 12
        assert quaternion().order() == 8

    def test_special_linear(self):
        sl23 = special_linear(3)
        assert sl23.order() == 24 and sl23.degree == 8
        sl25 = special_linear(5)
        assert sl25.order() == 120 and sl25.degree == 24

    def test_sl25_has_unique_involution(self):
        sl25 = special_linear(5)
        involutions = [x for x in sl25.raw_elements()
                       if x != tuple(range(24)) and
                       tuple(x[x[i]] for i in range(24)) == tuple(range(24))]
        assert len(involutions) == 1

    def test_sl25_is_strongly_nonsolvable(self):
        assert not has_prime_order_quotient(special_linear(5))

    def test_bad_parameters(self):
        with pytest.raises(InvalidInput):
            cyclic(0)
        with pytest.raises(InvalidInput):
            dihedral(7)
        with pytest.raises(InvalidInput):
            dihedral(4)


class TestParseGroupSpec:
    def test_named(self):
        assert parse_group_spec("A5").order() == 60
        assert parse_group_spec("C6").order() == 6
        assert parse_group_spec("V4").order() == 4
        assert parse_group_spec("Q8").order() == 8
        assert parse_group_spec("SL25").order() == 120
        assert parse_group_spec("D10").order() == 10

    def test_perm_form(self):
        G = parse_group_spec("perm4[(1 2 3 4);(1 3)]")
        assert G.order() == 8
        assert isomorphic(G, dihedral(8)) is not None

    def test_case_insensitive_names(self):
        assert parse_group_spec("a5").order() == 60
        assert parse_group_spec("q8").order() == 8

    def test_rejects_unknown(self):
        with pytest.raises(ParseError):
            parse_group_spec("E8")
        with pytest.raises(ParseError):
            parse_group_spec("")
        with pytest.raises(ParseError):
            parse_group_spec("perm3[(1 4)]")
        with pytest.raises(ParseError):
            parse_group_spec("C999")


class TestRecognizeName:
    def test_standard_names(self):
        assert recognize_name(symmetric(3)) == "S3"
        assert recognize_name(dihedral(12)) == "D12"
        assert recognize_name(quaternion()) == "Q8"
        assert recognize_name(cyclic(9)) == "C9"
        assert recognize_name(alternating(5)) == "A5"
        assert recognize_name(special_linear(5)) == "SL25"
        assert recognize_name(parse_group_spec("perm4[(1 2)(3 4);(1 3)(2 4)]")) == "V4"

    def test_unrecognized_group_gets_no_name(self):
        frobenius20 = parse_group_spec("perm5[(1 2 3 4 5);(2 3 5 4)]")
        assert frobenius20.order() == 20
        assert recognize_name(frobenius20) is None

    def test_group_past_a_cap_gets_no_name(self):
        assert recognize_name(alternating(5), Caps(iso_cap=50)) is None
        assert recognize_name(alternating(5), Caps(iso_cap=60)) == "A5"
        assert recognize_name(alternating(5), Caps(enum_cap=10)) is None
        assert recognize_name(cyclic(12), Caps(enum_cap=10)) is None


class TestBuildUniverse:
    def test_degree_three(self):
        cat = build_universe(3, extras=[])
        assert cat.names() == ["C1", "C2", "C3", "S3"]

    def test_degree_four_frozen_count(self):
        cat = build_universe(4, extras=[])
        assert len(cat) == 9
        assert set(cat.names()) == {"C1", "C2", "C3", "C4", "V4", "S3", "D8", "A4", "S4"}

    def test_degree_five_frozen_count(self):
        cat = build_universe(5, extras=[])
        assert len(cat) == 16
        names = set(cat.names())
        assert {"C1", "C2", "C3", "C4", "C5", "C6", "V4", "S3", "D8", "D10",
                "D12", "A4", "S4", "A5", "S5"} <= names
        assert "G20x1" in names

    def test_default_universe_size_frozen(self):
        cat = build_universe()
        assert len(cat) == 45
        assert cat.provenance["sym_degree"] == 5
        assert "A6" in cat.names() and "SL25" in cat.names() and "C32" in cat.names()

    def test_no_isomorphic_pair(self):
        cat = build_universe(4, extras=["Q8", "D8", "C8"])
        groups = cat.groups()
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                assert isomorphic(groups[i], groups[j]) is None

    def test_extra_dedup(self):
        cat = build_universe(5, extras=["Q8", "Q8", "D8"])
        q8_like = [e for e in cat.entries if e.name == "Q8"]
        assert len(q8_like) == 1
        assert len(cat) == 17

    def test_entries_sorted_by_order(self):
        cat = build_universe(4, extras=[])
        orders = [e.group.order() for e in cat.entries]
        assert orders == sorted(orders)

    @pytest.mark.parametrize("degree,classes", [(4, 11), (5, 19)])
    def test_fingerprints_one_subgroup_per_conjugacy_class(self, monkeypatch, degree, classes):
        computed, listed = [], []

        def counted(G, caps=DEFAULT_CAPS):
            if "fingerprint" not in G._cache:
                computed.append(G)
            return fingerprint(G, caps)

        def listing(G, *args, **kwargs):
            listed[:] = structure.subgroups(G, *args, **kwargs)
            return listed

        monkeypatch.setattr(universe, "fingerprint", counted)
        monkeypatch.setattr(structure, "fingerprint", counted)
        monkeypatch.setattr(universe, "subgroups", listing)
        build_universe(degree, extras=[])
        fingerprinted = [S for S in listed if any(S is G for G in computed)]
        assert len(fingerprinted) == classes

    def test_bad_degree(self):
        with pytest.raises(InvalidInput):
            build_universe(7)

    def test_default_extras_list(self):
        extras = default_extras(5)
        assert "C8" in extras and "C32" in extras and "A6" in extras
        assert "A6" not in default_extras(6)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        cat = build_universe(4, extras=["Q8"])
        path = str(tmp_path / "u.txt")
        save_catalog(cat, path)
        loaded = load_catalog(path)
        assert loaded.names() == cat.names()
        assert loaded.provenance == cat.provenance
        for a, b in zip(cat.entries, loaded.entries):
            assert fingerprint(a.group) == fingerprint(b.group)

    def test_deterministic_bytes(self, tmp_path):
        p1, p2 = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        save_catalog(build_universe(4, extras=["Q8", "C8"]), p1)
        save_catalog(build_universe(4, extras=["Q8", "C8"]), p2)
        with open(p1, "rb") as f1, open(p2, "rb") as f2:
            assert f1.read() == f2.read()

    def test_corrupt_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not-a-catalog\n")
        with pytest.raises(ParseError):
            load_catalog(str(path))

    def test_malformed_entry_rejected(self, tmp_path):
        path = tmp_path / "bad2.txt"
        path.write_text("classlab-universe v1\nspec sym_degree=3 extras=\nonlyname\n")
        with pytest.raises(ParseError):
            load_catalog(str(path))

    # Entries that `parse_group_spec` would refuse, and a name given twice,
    # which would make `Catalog.find` and audit witnesses ambiguous.
    BAD_ENTRIES = [
        ("X -2 -", "catalog line 3: degree -2 outside 1..128"),
        ("Y 0 -", "catalog line 3: degree 0 outside 1..128"),
        ("X 200 (1 2)", "catalog line 3: degree 200 outside 1..128"),
        ("C2 2 (1 2)\n\nC2 2 (1 2)", "catalog line 5: repeated name 'C2'"),
    ]

    @pytest.mark.parametrize("entries,message", BAD_ENTRIES)
    def test_entry_refused_with_its_line(self, tmp_path, entries, message):
        path = tmp_path / "bad3.txt"
        path.write_text(f"classlab-universe v1\nspec sym_degree=3 extras=\n{entries}\n")
        with pytest.raises(ParseError) as info:
            load_catalog(str(path))
        assert str(info.value) == message

    def test_edge_degrees_still_load(self, tmp_path):
        path = tmp_path / "edge.txt"
        path.write_text("classlab-universe v1\nspec sym_degree=3 extras=\n"
                        "C1 1 -\nBIG 128 (127 128)\n")
        assert [e.group.degree for e in load_catalog(str(path)).entries] == [1, 128]

    def test_default_catalog_round_trips_byte_identically(self, universe_file, tmp_path):
        again = tmp_path / "again.txt"
        save_catalog(load_catalog(universe_file), str(again))
        with open(universe_file, "rb") as fh:
            assert again.read_bytes() == fh.read()
