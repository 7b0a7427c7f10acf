"""Importing a module loads what it runs, and nothing else.

Every ``repro`` package ``__init__`` is a table of exports imported on
first use (:mod:`repro._exports`), so importing one submodule no longer
loads its siblings.  Two kinds of check:

- closure: a fresh interpreter imports one module and its ``sys.modules``
  must hold none of the features that module does not run (this
  interpreter has long since imported everything);
- parity: every package still offers what an eager ``__init__`` did —
  each ``__all__`` name is its submodule's object, ``import *`` binds
  them all, ``dir`` lists them, and an unknown name is an
  :class:`AttributeError`.

A run loads only what it executes, too: a serial campaign starts no
process pool and keeps no checkpoints, and a frontend answers without
the socket layer, so neither may load them.

A structure test guards the trap the lazy tables set: an import inside a
per-construction or per-query path runs ``importlib._bootstrap`` frames on
every call, so building a resolver and answering from warm state must run
none, with each deferred feature armed as well.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

import repro
from repro.core.worlds import build_ecs_cdn_world
from repro.dns.message import Message
from repro.dns.rdtypes import RdataType
from repro.net.topology import Region
from repro.resolver.policy import ResolverPolicy
from repro.resolver.recursive import RecursiveResolver
from tests.conftest import build_mini_world
from tests.metrics.test_count_once_structure import QNAME, calls

SRC = Path(repro.__file__).resolve().parent.parent
PACKAGES = sorted(
    f"repro.{init.parent.name}" for init in Path(repro.__file__).parent.glob("*/__init__.py")
)

#: Module -> what importing it must not load (a name covers its submodules).
CLOSURES = {
    "repro.serve.config": (
        "asyncio", "multiprocessing", "ssl", "concurrent.futures", "repro.serve.server",
        "repro.serve.workers", "repro.push", "repro.crawler", "repro.faults",
    ),
    "repro.runner.merge": ("repro.crawler",),
    "repro.core.scenarios": ("repro.serve", "repro.crawler", "repro.push", "asyncio"),
    "repro.cli": ("repro.core.worlds", "repro.resolver.recursive", "repro.serve"),
}

#: Code run in a fresh interpreter -> what running it must not load.
RUN_CLOSURES = {
    "serial campaign": (
        "from repro.core.scenarios import scenario_uy_ns\n"
        "scenario_uy_ns(probes=8, duration=1200, parallelism=1, shards=4)",
        ("concurrent.futures", "multiprocessing", "pickle", "repro.runner.checkpoint"),
    ),
    "frontend answer": (
        "from repro.dns.message import Message\n"
        "from repro.dns.rdtypes import RdataType\n"
        "from repro.serve.config import ServeConfig, build_frontend\n"
        "frontend, _ = build_frontend(ServeConfig(world='nl'))\n"
        "query = Message.make_query('www.example.nl.', RdataType.A).to_wire()\n"
        "assert frontend.handle_wire(query, '192.0.2.1').wire",
        ("socket", "ctypes", "selectors"),
    ),
}


def fresh(code: str):
    """What ``code`` prints as JSON, run in a new interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    return json.loads(done.stdout)


def covered(modules, names) -> list[str]:
    return sorted(
        module for module in modules
        if any(module == name or module.startswith(name + ".") for name in names)
    )


@pytest.mark.parametrize("module", sorted(CLOSURES))
def test_an_import_loads_only_what_it_runs(module):
    loaded = fresh(f"import json, sys, {module}; print(json.dumps(sorted(sys.modules)))")
    assert module in loaded
    assert covered(loaded, CLOSURES[module]) == []


@pytest.mark.parametrize("run", sorted(RUN_CLOSURES))
def test_a_run_loads_only_what_it_executes(run):
    code, unused = RUN_CLOSURES[run]
    loaded = fresh(f"import json, sys\n{code}\nprint(json.dumps(sorted(sys.modules)))")
    assert covered(loaded, unused) == []


def test_a_package_import_loads_no_submodule_and_dir_lists_every_export():
    seen = fresh(
        "import importlib, json, sys\n"
        "report = {}\n"
        f"for name in {PACKAGES!r}:\n"
        "    package = importlib.import_module(name)\n"
        "    report[name] = [sorted(set(package.__all__) - set(dir(package))),\n"
        "                    sorted(m for m in sys.modules if m.startswith(name + '.'))]\n"
        "print(json.dumps(report))"
    )
    assert seen == {name: [[], []] for name in PACKAGES}


@pytest.mark.parametrize("name", PACKAGES)
def test_every_export_is_its_submodules_object(name):
    package = importlib.import_module(name)
    assert package.__all__
    for export in package.__all__:
        with mock.patch("repro._exports.import_module", wraps=importlib.import_module) as loads:
            value = package.__getattr__(export)
        [(submodule,), _] = loads.call_args_list[0]  # later ones load its imports
        assert submodule.startswith(name + ".")
        assert value is getattr(sys.modules[submodule], export)
        assert getattr(package, export) is value


@pytest.mark.parametrize("name", PACKAGES)
def test_star_import_binds_every_export(name):
    package = importlib.import_module(name)
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert {export: namespace.get(export) for export in package.__all__} == {
        export: getattr(package, export) for export in package.__all__
    }


@pytest.mark.parametrize("name", PACKAGES)
def test_an_unknown_name_is_an_attribute_error(name):
    package = importlib.import_module(name)
    assert not hasattr(package, "no_such_export")
    with pytest.raises(AttributeError, match="no_such_export"):
        package.no_such_export


def into_importlib(seen) -> set:
    return {
        code for code in seen
        if not isinstance(code, str) and "importlib" in code.co_filename
    }


def test_a_resolver_build_and_warm_answers_run_no_import():
    world = build_mini_world()
    endpoint = world.topology.endpoint_in_region(Region.EU)
    built = []
    seen = calls(lambda: built.append(
        RecursiveResolver(endpoint=endpoint, network=world.network, root_hints=world.hints)
    ))
    [resolver] = built
    resolver.resolve(QNAME, RdataType.A, 0.0)
    answered = []
    seen += calls(lambda: answered.append(resolver.resolve(QNAME, RdataType.A, 1.0)))
    assert answered[0].cache_hit

    address = world.hints[next(iter(world.hints))]
    query = Message.make_query(QNAME, RdataType.A, recursion_desired=False)
    world.network.exchange(endpoint, address, query, 2.0)
    seen += calls(lambda: world.network.exchange(endpoint, address, query, 3.0))

    # A feature's modules load with the first resolver that arms it; the
    # next one builds and answers, upstream and from cache, importing
    # nothing.  The CDN servers echo ECS, so the ECS intake runs too.
    cdn = build_ecs_cdn_world(ttl=300, subnets=1)
    endpoint, [client] = cdn.isp_endpoints[Region.EU], cdn.clients
    for policy in (
        ResolverPolicy.predictive(),
        ResolverPolicy.prefetching(),
        ResolverPolicy.child_centric().with_(ecs=True),
    ):
        subnet = client.subnet if policy.ecs else None

        def answer(resolver, now):
            answered.append(resolver.resolve(
                cdn.content_name, RdataType.A, now, client_subnet=subnet
            ))

        answer(cdn.world.resolver(endpoint, policy), 0.0)
        built.clear()
        seen += calls(lambda: built.append(cdn.world.resolver(endpoint, policy)))
        [resolver] = built
        seen += calls(lambda: answer(resolver, 0.0))
        seen += calls(lambda: answer(resolver, 1.0))
        assert not answered[-2].cache_hit and answered[-1].cache_hit
        assert answered[-1].ecs_scope == (24 if policy.ecs else None)
    assert into_importlib(seen) == set()
