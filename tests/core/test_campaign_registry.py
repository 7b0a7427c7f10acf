"""Every registered campaign, end to end through ``repro run``.

The digests below were recorded from the hand-wired per-scenario
plumbing the registry replaced (reduced-size arguments, seed 0).  They
pin three things per campaign: the CLI table bytes, the ``--metrics``
JSON bytes, and the run-directory manifest — i.e. the campaign
fingerprint, so run directories written before the registry existed
still resume.

The manifest digests were recorded again when the shard payload went to
version 4: the fingerprint embeds that version so that a run directory
holding older envelopes is refused, and nothing else in them moved.  The
stdout digests are the first recording.

The metrics and manifest digests were recorded again when the fabric's
unused retry budget went, and with it the ``net.retry_budget_exhausted``
counter (0 in every run).  Each metrics JSON is the previous one without
that key.  Each manifest is the previous one with ``payload_version``
5 in place of 4, so a run directory whose shards still carry the key is
refused.
"""

import hashlib
import inspect

import pytest

from repro.cli import main
from repro.core.campaign import CAMPAIGNS
from repro.dns import name as name_module
from repro.runner import worldcache
from repro.runner.executor import ShardExecutor

#: campaign -> (reduced-size args, sha256 of stdout / metrics JSON / manifest).
ORACLE = {
    "t2-uy": (
        ["--probes", "16", "--duration", "1200"],
        "ff9786ab702c3f9585d1e535e26fcdd5ab20166a4e65056efdb9f658d88fe050",
        "172685e5494fee044c03bd026ce3a1559eecb522346a7e52f52accd322609a19",
        "2555a46ac20eb71c7df2fdad4e2289f9649ed5f278a3f2595306ca3c85be4942",
    ),
    "t2-anicuy": (
        ["--probes", "16", "--duration", "1200"],
        "23ca513b63a1cc31d5e5bf919ec71e5256a22bdd59da9b4f840d9e306892ca02",
        "b7478a83761d90a531f2a0de6f815fef734220cb5881c5efab32b34f87d8e970",
        "10afa226077b650f9a1831c8bbac0eadb8e699361bc38b52178a7d7a00f986c5",
    ),
    "t2-googleco": (
        ["--probes", "16", "--duration", "1200"],
        "8ef00f03ece15b0f206567ecfb2dbb0cf90fd8570772f8f126ed58a00af95351",
        "bf3103783553f7e7ac1837896bbbd367f6c597f12e2901a9a27277a672198916",
        "3fb928f3d4a54fdf2ba15ae0f72f8f85d3c20216ef7c36e6ad76e2ed4bc55857",
    ),
    "t10-controlled": (
        ["--probes", "8", "--duration", "1200"],
        "6c6cc9ac69138680b654e6cb889cfd629bcceabe518045f644d9a8c366756f06",
        "c4f3719a72481f4536a548e1c5ebb406708ce9b95b6c9edc625cbf11efab4946",
        "ce3f0071a1173934f83a6d268147f0b63c8f2abe1ec9173f80ba486ea701067f",
    ),
    "crawl": (
        ["--scale", "0.0001"],
        "06666b3202a647193ec03eff2c71c97d581befe0e420dcbcde0dfaa24b849d0d",
        "69f6e967ee4576a5286731b2db44b30ceffa99c93dc5c901a22c5884b43c16e1",
        "5b5f3f8da2d72f21f7e3d4f35d185a1217db8af454aa15860d12dd7f57912859",
    ),
    "ddos": (
        ["--duration", "1200"],
        "bca007683c741856ded691a479ab1cfb3147ddc04ef4ab17bccd81bfebfe351c",
        "ccfbdea869016740af769f0b7c9743d8ff08d702983fe02f4c847046bd769cbc",
        "265741c91f77c22d2f528b1c15a08003306289e7374dd9a605beecc1c622805a",
    ),
    "prefetch": (
        ["--duration", "300"],
        "371f9590af109f2a00b332ae53f49e89cfbdf1e4aeec3763e451a1520a4d276a",
        "4287620864be5d6f63f23fb783c07e4a5b341b700d332323ebe288812e46f556",
        "22cbaeb825ea1cc26a3d46df349a96ed5d83d3e990a4dbe7c9b4464d659faf6c",
    ),
    "ecs": (
        ["--duration", "300"],
        "9d93e59772b9148770a06b7a7b2d52273d3a71bef41586c67a4ae28b24a2c114",
        "c3de961aedf643398c3787f22ee8e2fd2b70a37ad1840985ec8799b44df1a55c",
        "8312a9493589f3aa0400dc138000f847cdb3c6fd5ab5866f28043ec2e38259c1",
    ),
    "push": (
        ["--duration", "900"],
        "ac6bce70356d86c28e89977db43d70d1d993548170671731035b5190afae961b",
        "4666d049ff10fbce5004e3c608733f9444434142ca63925ce3ba2f057370831d",
        "6983006c1455731c7ba19ac331a99693ef6ace77b064f6204b011107c5c6b319",
    ),
}

#: ``t2-uy --predict``: the one run that arms every population resolver
#: with refresh-ahead and stale-while-revalidate.  Kept beside ``ORACLE``,
#: whose keys must be exactly the registry's campaigns.
PREDICT_ORACLE = (
    ["--probes", "16", "--duration", "1200", "--predict"],
    "ff9786ab702c3f9585d1e535e26fcdd5ab20166a4e65056efdb9f658d88fe050",
    "f4d32da24475b1fefdfb742222cfc702dd797876a5c4fce9fdc7209df0a9e612",
    "902affadab11c9120a56242f0f56ac7bbef3ea0a0d79ae1e6acbc338c2163bad",
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(name, parallel, tmp_path, capsys, args=None):
    """``repro run NAME`` at reduced size (``ORACLE``'s arguments unless
    ``args`` is given); (stdout, metrics, manifest) bytes."""
    out = tmp_path / f"p{parallel}"
    status = main([
        "run", name, *(ORACLE[name][0] if args is None else args),
        "--parallel", str(parallel), "--quiet",
        "--metrics", str(out / "metrics.json"), "--run-dir", str(out),
    ])
    assert status == 0
    return (
        capsys.readouterr().out.encode(),
        (out / "metrics.json").read_bytes(),
        (out / "manifest.json").read_bytes(),
    )


def test_every_registered_campaign_has_an_oracle():
    assert sorted(CAMPAIGNS) == sorted(ORACLE)


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_serial_and_parallel_match_the_recorded_bytes(name, tmp_path, capsys):
    serial = _run(name, 1, tmp_path, capsys)
    assert tuple(map(_sha, serial)) == ORACLE[name][1:]
    # Results depend on the shard plan, never on the worker count.
    assert _run(name, 4, tmp_path, capsys) == serial


def test_predict_run_matches_the_recorded_bytes(tmp_path, capsys):
    args, *digests = PREDICT_ORACLE
    serial = _run("t2-uy", 1, tmp_path, capsys, args)
    assert list(map(_sha, serial)) == digests
    assert _run("t2-uy", 4, tmp_path, capsys, args) == serial


@pytest.fixture
def starved_intern_tables(monkeypatch):
    """Fresh name intern tables of one entry each, so almost no two equal
    names are the same object and every name-keyed probe takes the
    non-identity ``__eq__`` and hash paths.  Pool workers fork from this
    process and inherit the bound; cached worlds are dropped so each is
    built under it, and again afterwards so none outlives the test."""
    monkeypatch.setattr(name_module, "_INTERN_MAX", 1)
    monkeypatch.setattr(name_module, "_INTERN", {})
    monkeypatch.setattr(name_module, "_TEXT_INTERN", {})
    worldcache.clear()
    yield
    worldcache.clear()


def _intern_bound() -> int:
    return name_module._INTERN_MAX


def test_pool_workers_inherit_starved_intern_tables(starved_intern_tables):
    with ShardExecutor(parallelism=2)._new_pool() as pool:
        assert pool.submit(_intern_bound).result() == 1


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_starved_intern_tables_move_no_byte(name, starved_intern_tables, tmp_path, capsys):
    serial = _run(name, 1, tmp_path, capsys)
    assert tuple(map(_sha, serial)) == ORACLE[name][1:]
    assert _run(name, 4, tmp_path, capsys) == serial


_CAPABILITY_FLAGS = {
    "faults": ("--faults", ["plan.json"]),
    "predict": ("--predict", []),
    "snapshot": ("--snapshot-every", ["10"]),
}


@pytest.mark.parametrize(
    "name,capability",
    [
        (name, capability)
        for name, spec in CAMPAIGNS.items()
        for capability in _CAPABILITY_FLAGS
        if not getattr(spec, capability)
    ],
)
def test_unsupported_capability_exits_2(name, capability, tmp_path, capsys):
    flag, value = _CAPABILITY_FLAGS[capability]
    status = main(["run", name, flag, *value, "--run-dir", str(tmp_path / "run")])
    assert status == 2
    err = capsys.readouterr().err
    capable = [spec.name for spec in CAMPAIGNS.values() if getattr(spec, capability)]
    assert f"error: {flag} is not supported for {name}" in err
    assert f"campaigns: {', '.join(capable)})" in err


@pytest.mark.parametrize(
    "name", [name for name, spec in CAMPAIGNS.items() if spec.axes]
)
def test_grid_axes_are_checked_once_for_every_campaign(name):
    spec = CAMPAIGNS[name]
    scenario = spec.load("scenario")
    parameters = inspect.signature(scenario).parameters
    for axis, valid in spec.axes.items():
        parameter = f"{axis}s"
        if parameter not in parameters:
            continue  # not user-settable (ddos serve_stale, controlled label)
        with pytest.raises(ValueError, match=f"{name} needs >= 1 value on its {axis}"):
            scenario(**{parameter: ()})
        if valid is not None:
            with pytest.raises(ValueError) as excinfo:
                scenario(**{parameter: ("no-such-value",)})
            assert f"unknown {name} {axis} 'no-such-value'" in str(excinfo.value)
            assert f"(have: {', '.join(map(str, valid))})" in str(excinfo.value)


def test_cells_do_not_depend_on_the_registry_default():
    # The cell runners take the metrics registry as a required argument:
    # counters read back from it (refreshes, scope merges, notifications)
    # can no longer silently report 0 because nobody passed one.
    for name, spec in CAMPAIGNS.items():
        if spec.run_cell:
            parameter = inspect.signature(spec.load("run_cell")).parameters["metrics"]
            assert parameter.default is inspect.Parameter.empty, name
