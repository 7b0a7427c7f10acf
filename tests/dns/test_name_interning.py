"""Interning invariants for :class:`repro.dns.name.Name`.

The interned constructor is a pure optimisation: semantics (equality,
hashing, ordering, pickling) must be indistinguishable from the previous
build-a-fresh-object implementation.  These tests pin that contract, plus
the identity guarantees the fast paths rely on.
"""

import pickle
import string
from concurrent.futures import ProcessPoolExecutor

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dns import name as name_module
from repro.dns.name import Name, NameError_, root

labels = st.text(
    alphabet=string.ascii_lowercase + string.digits + "-",
    min_size=1,
    max_size=12,
)
label_tuples = st.lists(labels, min_size=0, max_size=6).map(tuple)


@pytest.fixture(autouse=True)
def _keep_root_canonical():
    """Tests here deliberately reset the intern tables; re-seed the module
    ``root`` singleton afterwards so later tests still see it as canonical."""
    yield
    name_module._INTERN.setdefault((), root)


# -- identity: the property the ``==`` and dict-probe fast paths rest on ----

# Identity tests use names unique to this module: a name first parsed by an
# *earlier* test can be left aliased in the text memo across an intern-table
# reset (the two tables clear independently), which would make these checks
# order-dependent.

def test_same_text_is_same_object():
    assert Name("host.interning.example") is Name("host.interning.example")


def test_equivalent_spellings_share_one_instance():
    canonical = Name("spell.interning.example")
    assert Name("spell.interning.example.") is canonical
    assert Name("SPELL.Interning.EXAMPLE") is canonical
    assert Name(("spell", "interning", "example")) is canonical
    assert Name.from_labels(("spell", "interning", "example")) is canonical


def test_root_is_interned():
    # The module-level ``root`` singleton may have lost canonical status to
    # an intern-table reset earlier in the session; identity is only
    # guaranteed among *current* constructions, equality always.
    name_module._TEXT_INTERN.pop("", None)  # drop any stale alias
    name_module._TEXT_INTERN.pop(".", None)
    canonical = Name.from_labels(())
    assert Name("") is canonical
    assert Name(".") is canonical
    assert canonical == root and canonical.is_root


def test_derived_names_are_interned():
    parent = Name("www.derived.interning.example").parent()
    assert parent is Name("derived.interning.example")
    prefix, suffix = Name("www.derived.interning.example").split(3)
    assert prefix is Name.from_labels(("www",))
    assert suffix is Name("derived.interning.example")


def test_name_constructor_passes_through_name():
    name = Name("passthrough.interning.example")
    assert Name(name) is name


def test_copy_and_deepcopy_return_self():
    import copy

    name = Name("copy.interning.example")
    assert copy.copy(name) is name
    assert copy.deepcopy(name) is name


# -- semantics unchanged: equality, hashing, ordering ------------------------

def test_eq_hash_ordering_match_label_semantics():
    a = Name("a.example")
    b = Name("b.example")
    assert a == a and a != b
    assert a == "a.example." and a == "A.Example"
    assert hash(a) == hash(Name("A.EXAMPLE."))
    # RFC 4034 §6.1 canonical ordering: right-to-left label comparison.
    assert root < a < b
    assert Name("z.a.example") < Name("b.example")


def test_eq_survives_intern_table_reset():
    """An instance that outlives a table reset stays equal to the new
    canonical instance for its labels — identity is lost, semantics are not."""
    survivor = Name("long-lived.example")
    name_module._INTERN.clear()
    name_module._TEXT_INTERN.clear()
    fresh = Name("long-lived.example")
    assert survivor is not fresh
    assert survivor == fresh
    assert hash(survivor) == hash(fresh)
    assert not survivor < fresh and not fresh < survivor
    assert len({survivor, fresh}) == 1


def test_intern_tables_stay_bounded():
    for index in range(name_module._INTERN_MAX + 10):
        Name(f"bulk-{index}.example")
    assert len(name_module._INTERN) <= name_module._INTERN_MAX
    assert len(name_module._TEXT_INTERN) <= name_module._INTERN_MAX


def test_validation_still_enforced():
    with pytest.raises(NameError_):
        Name("bad..example")
    with pytest.raises(NameError_):
        Name("x" * 64 + ".example")
    with pytest.raises(NameError_):
        Name(".".join("y" * 63 for _ in range(5)))  # > 255 wire octets
    with pytest.raises(AttributeError):
        Name("example.com")._lineage = (root,)


# -- pickling: across both the in-process and cross-process boundary ---------

def test_pickle_round_trip_restores_canonical_instance():
    name = Name("shard.interning.example")
    clone = pickle.loads(pickle.dumps(name))
    assert clone is name  # resolved through the intern table on load


def _worker_echo(name: Name) -> tuple[Name, str, int]:
    """Runs in a separate process: the intern table there starts empty."""
    return name, str(name), len(name)


def test_pickle_round_trip_across_process_pool():
    """Names survive the runner's shard boundary: a worker process pickles
    them back and the parent resolves them to its canonical instances."""
    names = [
        Name("probe-7.pool.interning.example"),
        Name("pool.interning.example"),
        Name.from_labels(()),
    ]
    with ProcessPoolExecutor(max_workers=1) as pool:
        for original in names:
            echoed, text, depth = pool.submit(_worker_echo, original).result()
            assert echoed is original
            assert text == str(original)
            assert depth == len(original)


# -- property: the trusted constructor agrees with the parsing one -----------

@given(label_tuples)
def test_from_labels_equals_parsed_name(parts):
    text = ".".join(parts) + "." if parts else "."
    name_module._TEXT_INTERN.pop(text, None)  # no stale alias from earlier tests
    try:
        parsed = Name(text)
    except NameError_:
        return  # over the 255-octet wire limit: from_labels is out of contract
    built = Name.from_labels(parts)
    assert built is parsed
    assert built == parsed
    assert hash(built) == hash(parsed)
    assert built.labels == parts
    assert str(built) == text


@given(label_tuples, label_tuples)
def test_interning_preserves_ordering(parts_a, parts_b):
    a, b = Name.from_labels(parts_a), Name.from_labels(parts_b)
    # Ordering must match the canonical right-to-left label comparison,
    # independently of interning.
    key_a, key_b = tuple(reversed(parts_a)), tuple(reversed(parts_b))
    assert (a < b) == (key_a < key_b)
    assert (a <= b) == (key_a <= key_b)
    assert (a > b) == (key_a > key_b)
    assert (a >= b) == (key_a >= key_b)
    low, high = sorted((a, b), key=lambda name: tuple(reversed(name)))
    assert min(a, b) == low and max(a, b) == high
    assert (a == b) == (parts_a == parts_b)
