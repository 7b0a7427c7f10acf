"""Structure of :class:`repro.dns.name.Name`: a dict probe keyed on a name
runs no Python code.

Every cache, zone and intern-table lookup is keyed on a name, so the probe
cost is paid several times per simulated query.  These tests fail when a
Python ``__hash__``, ``__len__`` or ``__iter__`` comes back.
"""

import sys

from repro.dns import name as name_module
from repro.dns.name import Name


def test_hash_is_tuples_c_slot():
    assert Name.__hash__ is tuple.__hash__
    assert hash(Name("slot.structure.example")) == hash(("slot", "structure", "example"))


def test_no_python_len_or_iter():
    assert "__len__" not in vars(Name)
    assert "__iter__" not in vars(Name)


def _python_calls_during(probe) -> list[str]:
    calls: list[str] = []

    def profiler(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == name_module.__file__:
            calls.append(frame.f_code.co_name)

    sys.setprofile(profiler)
    try:
        probe()
    finally:
        sys.setprofile(None)
    return calls


def test_warm_dict_probe_on_an_interned_name_makes_no_python_call():
    key = Name("probe.structure.example")
    table = {key: 1, Name("other.structure.example"): 2}
    assert _python_calls_during(lambda: table.get(key)) == []


def test_probe_on_an_equal_non_interned_name_calls_only_eq():
    stored = Name("equal.structure.example")
    table = {stored: 1}
    twin = tuple.__new__(Name, ("equal", "structure", "example"))
    assert twin is not stored
    assert _python_calls_during(lambda: table.get(twin)) == ["__eq__"]
