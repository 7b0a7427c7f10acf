"""Which of tuple's behaviours a :class:`repro.dns.name.Name` keeps.

A name *is* the tuple of its lowercase labels.  Each test below pins one
decision about what that base class lets through, so a change to any of
them is deliberate.
"""

import copy
import json
import pickle

import pytest

from repro.dns import name as name_module
from repro.dns.name import Name
from repro.runner.worldcache import cache_key


def test_equal_to_a_plain_tuple_of_its_labels():
    # Accepted: tuple's reflected ``__eq__`` compares labels, and the hash
    # agrees, so a name and its label tuple are one dict key.
    name = Name("www.tuple.example")
    assert name == ("www", "tuple", "example")
    assert ("www", "tuple", "example") == name
    assert name != ("tuple", "example")
    assert {("www", "tuple", "example"): 1}[name] == 1


def test_not_equal_is_the_negation_of_equal():
    # Defined on Name: tuple's own ``__ne__`` would call a name unequal to
    # its presentation text.
    name = Name("www.tuple.example")
    assert not name != "WWW.tuple.example."
    assert name != "other.example" and name != "not..valid" and name != 3


def test_ordering_against_a_plain_tuple_is_canonical():
    # Against a label tuple, too, labels compare right to left: tuple's
    # left-to-right order never leaks, whichever operand is on the left.
    name = Name("a.z")
    assert name > ("b",) and ("b",) < name
    assert name >= ("b",) and ("b",) <= name
    assert not name < ("b",) and not ("b",) > name
    with pytest.raises(TypeError):
        name < "b.z"  # noqa: B015


def test_indexing_and_membership_read_labels():
    name = Name("www.tuple.example")
    assert name[0] == "www" and name[-1] == "example"
    assert "tuple" in name and "nope" not in name
    assert len(name) == 3 and list(name) == ["www", "tuple", "example"]


def test_slicing_and_concatenation_return_plain_tuples():
    # Tuple arithmetic is label arithmetic on plain tuples, never a
    # (possibly invalid) Name: concatenate()/prepend() are the checked way.
    name = Name("www.tuple.example")
    for result in (name[1:], name + Name("org"), ("x",) + name, name * 2):
        assert type(result) is tuple
    assert name[1:] == ("tuple", "example")
    assert name + Name("org") == ("www", "tuple", "example", "org")
    assert name.concatenate(Name("org")) is Name("www.tuple.example.org")


def test_labels_is_a_plain_tuple():
    labels = Name("www.tuple.example").labels
    assert type(labels) is tuple and labels == ("www", "tuple", "example")


def test_json_writes_a_label_list_and_world_keys_use_the_text():
    name = Name("www.tuple.example")
    assert json.dumps(name) == '["www", "tuple", "example"]'
    key = cache_key("uy", {"origin": name, "ttl": 60})
    assert json.loads(key)["kwargs"] == {"origin": "www.tuple.example.", "ttl": 60}


def test_pickle_and_copy_return_the_canonical_instance(monkeypatch):
    survivor = Name("survivor.tuple.example")
    # Fresh intern tables: ``survivor`` outlives them as a non-canonical name.
    monkeypatch.setattr(name_module, "_INTERN", {})
    monkeypatch.setattr(name_module, "_TEXT_INTERN", {})
    canonical = Name("survivor.tuple.example")
    assert survivor is not canonical
    for clone in (
        pickle.loads(pickle.dumps(survivor)),
        copy.copy(survivor),
        copy.deepcopy(survivor),
    ):
        assert clone is canonical


def test_no_tuple_state_can_be_set():
    name = Name("www.tuple.example")
    with pytest.raises(AttributeError):
        name.anything = 1
