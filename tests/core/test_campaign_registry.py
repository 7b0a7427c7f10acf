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
stdout and metrics digests are the first recording.
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
        "1901b7adc40010b374c86de2b1e0ff1a27442f0bad89ec723c216d0270e2bab5",
        "7e5d42122e9bd519f07c73eca0d378b80fa3d15c9a32a4e00bf3805775058cd9",
    ),
    "t2-anicuy": (
        ["--probes", "16", "--duration", "1200"],
        "23ca513b63a1cc31d5e5bf919ec71e5256a22bdd59da9b4f840d9e306892ca02",
        "0ba87d5f524860370340dd1fb7fb336ffb16b76d8cf9673270a61ca47bf84762",
        "9f735cfd806e8d2f7af813f18cff3e93cdbd260e8e27732fe66646ccf91e4de2",
    ),
    "t2-googleco": (
        ["--probes", "16", "--duration", "1200"],
        "8ef00f03ece15b0f206567ecfb2dbb0cf90fd8570772f8f126ed58a00af95351",
        "67786f8908928e2097821f0776561c163e7892b21ff5102b6a86981864947272",
        "1e0667b90a941e76aee227785e4ca69894a7948e44505b945340a4d55e2e61d2",
    ),
    "t10-controlled": (
        ["--probes", "8", "--duration", "1200"],
        "6c6cc9ac69138680b654e6cb889cfd629bcceabe518045f644d9a8c366756f06",
        "51e087defb3a7ff3d9932e91e2ff9357992eedb91338f315bfab758bf5e6b0e2",
        "31738c056ae5000299a97f0161cdd7167b08d3ae573fb30b89b642e8c36a7b43",
    ),
    "crawl": (
        ["--scale", "0.0001"],
        "06666b3202a647193ec03eff2c71c97d581befe0e420dcbcde0dfaa24b849d0d",
        "45707c0a598ebc6cb81fa723b8a78dd88b08f8f90292f9697abd122e7d3dd86b",
        "d113ab0f01673c67d7fddb568efc6d77718c23083139fbfc33803a5e6bb02119",
    ),
    "ddos": (
        ["--duration", "1200"],
        "bca007683c741856ded691a479ab1cfb3147ddc04ef4ab17bccd81bfebfe351c",
        "b53785e86e1036c8ab400ff8e7f4b442626ba294b1a8fd198669097e96c7b45a",
        "98a043635b2004d461efefd33dfd125c1bf55773d3a372b573f4e0c7a425cc09",
    ),
    "prefetch": (
        ["--duration", "300"],
        "371f9590af109f2a00b332ae53f49e89cfbdf1e4aeec3763e451a1520a4d276a",
        "2c7fd405abcabab71e25ae0de044ec3059e58c1cf10c1815255963a084265410",
        "4dcefd6d4b4337347f0ff99303872157a890bbb7a9403e9a8ad3112028ed523b",
    ),
    "ecs": (
        ["--duration", "300"],
        "9d93e59772b9148770a06b7a7b2d52273d3a71bef41586c67a4ae28b24a2c114",
        "92515c027287b03b9dc227b5edefa4f03f2d1a1271b128d0f44b2b3273c813d5",
        "21da6233916a04d152a128c43cb7845ab2f9c3a04812769199146e9a43455746",
    ),
    "push": (
        ["--duration", "900"],
        "ac6bce70356d86c28e89977db43d70d1d993548170671731035b5190afae961b",
        "26dfaa77cd38a11635bfdb9fb4a70946e5092497562d5dd1fa551370a57c64a4",
        "5093e7e498d24977559aadd3fe241f5b5894843611e48160dd9bd0fc5cc0da0b",
    ),
}

#: ``t2-uy --predict``: the one run that arms every population resolver
#: with refresh-ahead and stale-while-revalidate.  Kept beside ``ORACLE``,
#: whose keys must be exactly the registry's campaigns.
PREDICT_ORACLE = (
    ["--probes", "16", "--duration", "1200", "--predict"],
    "ff9786ab702c3f9585d1e535e26fcdd5ab20166a4e65056efdb9f658d88fe050",
    "2f89cc07bec2b51893a5bfc45b3239ba414e8172556e94833737825d891b4f6f",
    "8444829eeac61f6a9e0a6964f0fb1add596d38527ac6e41decfa2a05aab751b0",
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
