"""Tests for repro.dns.name."""

import pytest

from repro.dns.name import MAX_LABEL_LENGTH, Name, NameError_, root


class TestConstruction:
    def test_from_text(self):
        name = Name("www.example.com")
        assert name.labels == ("www", "example", "com")

    def test_trailing_dot_ignored(self):
        assert Name("example.com.") == Name("example.com")

    def test_case_folded(self):
        assert Name("WWW.Example.COM") == Name("www.example.com")
        assert str(Name("WWW.Example.COM")) == "www.example.com."

    def test_root_from_empty(self):
        assert Name("") is not None
        assert Name("").is_root
        assert Name(".").is_root

    def test_from_labels(self):
        assert Name(["www", "example", "com"]) == Name("www.example.com")

    def test_from_name_is_copy(self):
        original = Name("a.b")
        assert Name(original) == original

    def test_empty_label_rejected(self):
        with pytest.raises(NameError_):
            Name("a..b")

    def test_too_long_label_rejected(self):
        with pytest.raises(NameError_):
            Name("x" * (MAX_LABEL_LENGTH + 1) + ".com")

    def test_max_length_label_accepted(self):
        Name("x" * MAX_LABEL_LENGTH + ".com")

    def test_non_ascii_rejected(self):
        with pytest.raises(NameError_):
            Name("exämple.com")

    def test_name_too_long_rejected(self):
        label = "a" * 63
        with pytest.raises(NameError_):
            Name(".".join([label] * 5))

    def test_immutability(self):
        name = Name("example.com")
        with pytest.raises(AttributeError):
            name.labels = ()


class TestPresentation:
    def test_str_absolute(self):
        assert str(Name("example.com")) == "example.com."

    def test_root_str(self):
        assert str(root) == "."

    def test_repr(self):
        assert repr(Name("a.b")) == "Name('a.b.')"

    def test_to_text(self):
        assert Name("a.b").to_text() == "a.b."


class TestEquality:
    def test_equal_to_string(self):
        assert Name("example.com") == "Example.COM."

    def test_not_equal_to_garbage_string(self):
        assert Name("example.com") != "not..valid"

    def test_hashable(self):
        assert hash(Name("a.b")) == hash(Name("A.B."))

    def test_usable_as_dict_key(self):
        d = {Name("x.y"): 1}
        assert d[Name("X.Y.")] == 1


class TestOrdering:
    def test_canonical_order_right_to_left(self):
        # RFC 4034 §6.1 example ordering.
        names = [Name("example"), Name("a.example"), Name("yljkjljk.a.example"),
                 Name("z.example")]
        assert sorted(names) == names

    def test_root_sorts_first(self):
        assert root < Name("aaa")


class TestStructure:
    def test_len_counts_labels(self):
        assert len(Name("a.b.c")) == 3
        assert len(root) == 0

    def test_iter(self):
        assert list(Name("a.b")) == ["a", "b"]

    def test_parent(self):
        assert Name("www.example.com").parent() == Name("example.com")

    def test_root_has_no_parent(self):
        with pytest.raises(NameError_):
            root.parent()

    def test_prepend(self):
        assert Name("example.com").prepend("www") == Name("www.example.com")

    def test_concatenate(self):
        assert Name("www").concatenate(Name("example.com")) == Name("www.example.com")

    def test_split(self):
        prefix, suffix = Name("www.example.com").split(2)
        assert prefix == Name("www")
        assert suffix == Name("example.com")

    def test_split_bad_depth(self):
        with pytest.raises(NameError_):
            Name("a.b").split(5)


class TestRelationships:
    def test_subdomain_of_self(self):
        assert Name("a.b").is_subdomain_of(Name("a.b"))

    def test_subdomain_of_parent(self):
        assert Name("www.example.com").is_subdomain_of(Name("example.com"))

    def test_everything_under_root(self):
        assert Name("deep.name.example").is_subdomain_of(root)

    def test_not_subdomain_of_sibling(self):
        assert not Name("a.com").is_subdomain_of(Name("b.com"))

    def test_label_boundary_respected(self):
        # notexample.com is NOT under example.com despite the suffix match.
        assert not Name("notexample.com").is_subdomain_of(Name("example.com"))

    def test_bailiwick_paper_example(self):
        # RFC 8499 / paper §2: ns.example.org is in bailiwick of
        # example.org; ns.example.com is not.
        zone = Name("example.org")
        assert Name("ns.example.org").in_bailiwick_of(zone)
        assert not Name("ns.example.com").in_bailiwick_of(zone)
