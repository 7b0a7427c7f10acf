"""The reach gate (``tools/check_reach.py``) on small synthetic trees.

Each case writes a miniature repository under ``tmp_path`` — a
``src/repro`` package, the non-test files that use it, and optionally an
allowlist — and runs the tool's entry point over it.
"""

import importlib.util
from pathlib import Path
from textwrap import dedent

import pytest

REPO = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "check_reach", REPO / "tools" / "check_reach.py"
)
check_reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_reach)

LIBRARY = """
    def used():
        return 1


    def only_tested():
        return 2
"""

CALLER = """
    from repro.lib import used

    print(used())
"""


@pytest.fixture
def tree(tmp_path):
    """``tree(files, allowlist=None)`` writes the files and returns the
    tool's exit status; its report goes to stderr."""

    def run(files, allowlist=None):
        files = {"src/repro/__init__.py": "", **files}
        for rel, text in files.items():
            path = tmp_path / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(dedent(text))
        if allowlist is not None:
            path = tmp_path / check_reach.ALLOWLIST_PATH
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(allowlist)
        return check_reach.main(tmp_path)

    return run


def test_a_definition_only_a_test_calls_fails(tree, capsys):
    status = tree({
        "src/repro/lib.py": LIBRARY,
        "examples/demo.py": CALLER,
        "tests/test_lib.py": "from repro.lib import only_tested\nonly_tested()\n",
    })
    assert status == 1
    err = capsys.readouterr().err
    assert "src/repro/lib.py:6: only_tested is not reached outside tests" in err
    assert err.count("is not reached") == 1  # used() is reached from examples/


def test_the_same_definition_allowlisted_passes(tree, capsys):
    status = tree(
        {"src/repro/lib.py": LIBRARY, "examples/demo.py": CALLER},
        allowlist="lib.py::only_tested  # documented API\n",
    )
    assert status == 0, capsys.readouterr().err


def test_an_allowlist_entry_needs_a_reason(tree, capsys):
    status = tree(
        {"src/repro/lib.py": LIBRARY, "examples/demo.py": CALLER},
        allowlist="lib.py::only_tested\n",
    )
    assert status == 1
    assert "lib.py::only_tested has no reason" in capsys.readouterr().err


@pytest.mark.parametrize("entry", ["lib.py::used", "lib.py::deleted_long_ago"])
def test_a_stale_allowlist_entry_fails(tree, capsys, entry):
    status = tree(
        {"src/repro/lib.py": LIBRARY, "examples/demo.py": CALLER},
        allowlist=f"lib.py::only_tested  # documented API\n{entry}  # was test-only\n",
    )
    assert status == 1
    assert f"{entry} is reached or gone" in capsys.readouterr().err


#: Files that name ``only_tested`` in prose alone.
PROSE_USES = {
    "docstring": '''
        def caller():
            """Unlike only_tested(), this one is called."""
            return 3


        print(caller())
    ''',
    "comment": """
        VALUE = 1  # only_tested() would also give 2
    """,
    "string-statement": '''
        VALUE = 2
        """only_tested"""
    ''',
}

#: Files that reach ``only_tested`` in code without a plain call.
CODE_USES = {
    "getattr": """
        import repro.lib

        print(getattr(repro.lib, "only_tested")())
    """,
    "spec-string": """
        SPEC = "repro.lib:only_tested"
    """,
    "import-alias": """
        from repro.lib import only_tested as second

        print(second())
    """,
}


@pytest.mark.parametrize("use", sorted(PROSE_USES))
def test_a_use_in_prose_does_not_reach(tree, capsys, use):
    status = tree({
        "src/repro/lib.py": LIBRARY,
        "examples/demo.py": CALLER,
        "examples/prose.py": PROSE_USES[use],
    })
    assert status == 1
    assert "only_tested is not reached outside tests" in capsys.readouterr().err


@pytest.mark.parametrize("use", sorted(CODE_USES))
def test_a_use_in_code_reaches(tree, capsys, use):
    status = tree({
        "src/repro/lib.py": LIBRARY,
        "examples/demo.py": CALLER,
        "examples/use.py": CODE_USES[use],
    })
    assert status == 0, capsys.readouterr().err


def test_registrations_and_protocol_callbacks_pass(tree, capsys):
    status = tree({
        "src/repro/cli.py": """
            ARTIFACTS = {}


            def artifact(name):
                def register(func):
                    ARTIFACTS[name] = func
                    return func
                return register


            @artifact("fig1")
            def run_fig1():
                return "fig1"


            class Protocol:
                def datagram_received(self, data, addr):
                    pass


            print(ARTIFACTS, Protocol)
        """,
        "examples/demo.py": "import repro.cli\n",
    })
    assert status == 0, capsys.readouterr().err


def test_export_tables_do_not_count_as_use(tree, capsys):
    status = tree({
        "src/repro/pkg/__init__.py": """
            from repro._exports import lazy_exports

            __all__, __getattr__, __dir__ = lazy_exports(globals(), {
                "lib": ("only_exported",),
            })
        """,
        "src/repro/pkg/lib.py": "def only_exported():\n    return 1\n",
        "src/repro/_exports.py": "def lazy_exports(namespace, table):\n    return table\n",
    })
    assert status == 1
    err = capsys.readouterr().err
    assert "only_exported is not reached outside tests" in err
    # Named in the table, the module itself is reached.
    assert "module repro.pkg.lib" not in err


def test_a_module_only_a_test_imports_fails(tree, capsys):
    status = tree({
        "src/repro/orphan.py": "VALUE = 1\n",
        "tests/test_orphan.py": "import repro.orphan\n",
    })
    assert status == 1
    assert "module repro.orphan is imported by no non-test file" in capsys.readouterr().err


def test_a_module_named_only_in_prose_fails(tree, capsys):
    status = tree({
        "src/repro/orphan.py": "VALUE = 1\n",
        "examples/demo.py": '"""Also see "repro.orphan" and "repro.orphan:VALUE"."""\n',
    })
    assert status == 1
    assert "module repro.orphan is imported by no non-test file" in capsys.readouterr().err


def test_a_spec_string_reaches_a_module(tree, capsys):
    status = tree({
        "src/repro/scenarios.py": "def scenario():\n    return 1\n",
        "src/repro/registry.py": 'SPEC = "repro.scenarios:scenario"\n',
        "examples/demo.py": "import repro.registry\n",
    })
    assert status == 0, capsys.readouterr().err


def test_the_repository_passes(capsys):
    assert check_reach.main() == 0, capsys.readouterr().err
